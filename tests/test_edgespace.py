import gc
import math
import random
import tracemalloc
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbwalks import (
    Matrix,
    Polynomial,
    build_edge_space,
    build_graph,
    build_unweighted,
    non_k_cycling,
    perron_radius,
    v_similar,
)
from nbwalks import graphs as graphs_mod
from nbwalks.cli import run_command
from nbwalks.errors import WeightedUnsupportedError

from helpers import (
    bowtie,
    complete_undirected,
    digraphs,
    directed_cycle,
    downweighted_transfer,
    example1,
    random_digraph,
    single_recip_edge,
    two_squares,
    weighted_3cycle,
)


VIEWS = ("source", "target", "line_graph", "backtrack", "reciprocal_mask", "hashimoto",
         "weight_diag")


def reference_edge_matrices(g):
    """The seven edge-space matrices by the O(m**2) scan over all edge pairs
    (the dense build the arc arrays replaced), keyed by view name."""
    edges = [(u, v) for u, v, _ in g.edges]
    m = len(edges)
    index = {e: i for i, e in enumerate(edges)}
    line = [[F(0)] * m for _ in range(m)]
    back = [[F(0)] * m for _ in range(m)]
    hashi = [[F(0)] * m for _ in range(m)]
    for e, (u, v) in enumerate(edges):
        rev = index.get((v, u))
        for f, (x, y) in enumerate(edges):
            if x != v:
                continue
            line[e][f] = F(1)
            if f == rev:
                back[e][f] = F(1)
            else:
                hashi[e][f] = F(1)
    return {
        "source": Matrix([[F(int(u == j)) for j in range(g.n)] for u, _ in edges], ncols=g.n),
        "target": Matrix([[F(int(v == j)) for j in range(g.n)] for _, v in edges], ncols=g.n),
        "line_graph": Matrix(line),
        "backtrack": Matrix(back),
        "reciprocal_mask": Matrix.diagonal([F(int((v, u) in index)) for u, v in edges]),
        "hashimoto": Matrix(hashi),
        "weight_diag": Matrix.diagonal([w for _, _, w in g.edges]),
    }


def assert_matches_reference(g):
    """The arc arrays and all seven views against the dense reference."""
    es = build_edge_space(g)
    ref = reference_edge_matrices(g)
    assert es.tails == tuple(u for u, _, _ in g.edges)
    assert es.heads == tuple(v for _, v, _ in g.edges)
    assert es.weights == tuple(w for _, _, w in g.edges)
    assert es.reverse == tuple(
        next((f for f in range(es.m) if ref["backtrack"][e, f]), None) for e in range(es.m))
    assert es.successors == tuple(
        tuple(f for f in range(es.m) if ref["hashimoto"][e, f]) for e in range(es.m))
    assert es.m == g.m
    assert es.m == es.unreciprocated_count + 2 * es.reciprocal_pair_count
    assert es.reciprocal_pair_count == sum(1 for f in es.reverse if f is not None) // 2
    for name in VIEWS:
        view = getattr(es, name)
        assert view == ref[name], name
        assert getattr(es, name) is view  # built once
    assert es.line_graph - es.backtrack == es.hashimoto


class TestBuildEdgeSpace:
    def test_equals_dense_build(self):
        rng = random.Random(17)
        graphs = [random_digraph(rng, rng.randint(2, 7), rng.choice([0.2, 0.5, 0.9]),
                                 weighted=rng.random() < 0.5) for _ in range(25)]
        graphs += [example1(), bowtie(), two_squares(), single_recip_edge(),
                   build_unweighted([], vertices=[1, 2]), build_unweighted([], vertices=[1])]
        for g in graphs:
            assert_matches_reference(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.fractions(F(1, 9), 9, max_denominator=9)),
                 max_size=n * (n - 1)))))
    def test_arrays_and_views_agree(self, case):
        n, arcs = case
        seen, triples = set(), []
        for u, v, w in arcs:
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                triples.append((u, v, w))
        assert_matches_reference(build_graph(triples, vertices=range(n)))

    def test_build_makes_no_dense_matrix(self):
        # 150 vertices, 600 arcs: one dense m-by-m Fraction matrix alone
        # takes several MiB
        rng = random.Random(600)
        pairs = set()
        while len(pairs) < 600:
            u, v = rng.sample(range(150), 2)
            pairs.add((u, v))
        pool = [F(1), F(2), F(1, 3), F(7, 5)]
        g = build_graph([(u, v, rng.choice(pool)) for u, v in sorted(pairs)],
                        vertices=range(150))
        tracemalloc.start()
        try:
            es = build_edge_space(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert es.m == 600
        assert peak < 2**20
        assert not set(VIEWS) & set(vars(es))

    def test_single_reciprocal_edge(self):
        es = build_edge_space(single_recip_edge())
        assert es.m == 2
        assert es.unreciprocated_count == 0
        assert es.reciprocal_pair_count == 1
        assert es.hashimoto.is_zero()

    def test_directed_3cycle_is_permutation(self):
        es = build_edge_space(directed_cycle(3))
        assert es.m == 3
        # exactly one continuation per edge, no backtracks possible
        assert [sum(row) for row in es.hashimoto.data] == [1, 1, 1]
        assert es.backtrack.is_zero()

    def test_example1_counts_and_factorization(self):
        g = example1()
        es = build_edge_space(g)
        assert (es.m, es.unreciprocated_count, es.reciprocal_pair_count) == (5, 3, 1)
        assert es.source.transpose() * es.target == g.adjacency()
        assert es.source.transpose() * es.weight_diag * es.target == g.adjacency()

    def test_incidence_rows_are_unit(self):
        es = build_edge_space(example1())
        for mat in (es.source, es.target):
            for row in mat.data:
                assert sum(row) == 1 and all(x in (0, 1) for x in row)

    def test_m_equals_a_plus_2b(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(2, 6), rng.choice([0.3, 0.6]))
            es = build_edge_space(g)
            assert es.m == es.unreciprocated_count + 2 * es.reciprocal_pair_count

    def test_reciprocal_mask_is_backtrack_squared(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(2, 5), 0.5)
            es = build_edge_space(g)
            assert es.backtrack * es.backtrack == es.reciprocal_mask
            for e in range(es.m):
                for f in range(es.m):
                    if e != f:
                        assert es.reciprocal_mask.data[e][f] == 0

    def test_line_graph_compression_to_a_squared(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(2, 5), 0.5)
            es = build_edge_space(g)
            lt = es.source.transpose()
            assert lt * es.line_graph * es.target == g.adjacency() * g.adjacency()

    def test_empty_graph(self):
        es = build_edge_space(build_unweighted([], vertices=[1, 2]))
        assert es.m == 0 and es.hashimoto.nrows == 0

    def test_arcless_incidence_shapes(self):
        g = build_unweighted([], vertices=[1, 2, 3])
        es = build_edge_space(g)
        for view in (es.source, es.target):
            assert (view.nrows, view.ncols) == (0, 3)
        lt = es.source.transpose()
        assert (lt.nrows, lt.ncols) == (3, 0)
        assert lt * es.target == Matrix.zeros(3, 3)
        assert lt * es.weight_diag * es.target == g.adjacency()


class TestWeightedMatrices:
    def test_unit_weights_reduce_to_hashimoto(self):
        es = build_edge_space(example1())
        assert v_similar(es) == es.hashimoto

    def test_single_reciprocal_any_weights(self):
        es = build_edge_space(single_recip_edge(F(7, 2), F(5, 3)))
        assert v_similar(es).is_zero()

    def test_v_similar_spectrum(self):
        es = build_edge_space(weighted_3cycle())
        cp = v_similar(es).char_poly()
        assert cp == Polynomial([-30, 0, 0, 1])

    def test_v_similar_zero_without_continuations(self):
        g = build_unweighted([(1, 2)])
        es = build_edge_space(g)
        assert es.reciprocal_pair_count == 0
        assert v_similar(es).is_zero()


def dense_rows(rows, den, m):
    """The transfer rows as an m-by-m `Matrix`."""
    dense = [[0] * m for _ in range(m)]
    for e, (cols, xs) in enumerate(rows):
        for f, x in zip(cols, xs):
            dense[e][f] = F(x, den)
    return Matrix(dense, ncols=m)


class TestTransferRows:
    """`EdgeSpace.transfer_rows` is T Z = (tau B + (1 - tau) W) Z read off
    the arc arrays, as sparse integer rows over b * ell, and
    `EdgeSpace.transfer` is those rows written out densely."""

    TAUS = (F(0), F(1, 3), F(1, 2), F(1))

    def check(self, g, tau):
        es = build_edge_space(g)
        rows, den = es.transfer_rows(tau)
        assert den == F(tau).denominator * math.lcm(*(w.denominator for w in es.weights))
        assert len(rows) == es.m
        for e, (cols, xs) in enumerate(rows):
            assert cols == sorted(cols)
            assert all(xs) and len(cols) == len(xs)
            assert all(es.tails[f] == es.heads[e] for f in cols)
        dense = es.transfer(tau)
        assert dense == dense_rows(rows, den, es.m)
        assert dense == downweighted_transfer(es, tau) * es.weight_diag
        if tau == 1:
            assert dense == v_similar(es)
            if all(w == 1 for w in es.weights):
                assert dense == es.hashimoto

    @settings(max_examples=60, deadline=None)
    @given(g=digraphs(weighted=False))
    def test_unit_graphs_at_every_tau(self, g):
        for tau in self.TAUS:
            self.check(g, tau)

    @settings(max_examples=60, deadline=None)
    @given(g=digraphs(weighted=True))
    def test_weighted_graphs(self, g):
        for tau in self.TAUS:
            self.check(g, tau)

    def test_denominator_and_reverse_entry(self):
        g = build_graph([(0, 1, F(1, 2)), (1, 0, F(2, 3)), (1, 2, 3), (2, 0, 1)])
        es = build_edge_space(g)
        # arcs 0->1, 1->0, 1->2, 2->0; ell = 6, z = (3, 4, 18, 6)
        assert es.transfer_rows() == ([([2], [18]), ([], []), ([3], [6]), ([0], [3])], 6)
        # tau = 1/3: b = 3, reverse entries (b - a) z = 2 z
        rows, den = es.transfer_rows(F(1, 3))
        assert den == 18
        assert rows == [([1, 2], [8, 54]), ([0], [6]), ([3], [18]), ([0], [9])]

    def test_no_arcs_and_no_vertices(self):
        for g in (build_unweighted([], vertices=[1, 2]), build_unweighted([], vertices=[])):
            for tau in self.TAUS:
                es = build_edge_space(g)
                assert es.transfer_rows(tau) == ([], F(tau).denominator)
                assert es.transfer(tau) == Matrix.zeros(0, 0)

    def test_builds_no_view(self):
        es = build_edge_space(example1())
        for tau in self.TAUS:
            es.transfer_rows(tau)
            es.transfer(tau)
        assert not set(VIEWS) & set(vars(es))


class TestNonKCycling:
    def test_k1_is_adjacency(self):
        g = example1()
        nk = non_k_cycling(g, 1)
        assert nk.matrix == g.adjacency()
        assert nk.paths == tuple((v,) for v in range(g.n))

    def test_k2_matches_hashimoto(self):
        for g in (example1(), directed_cycle(3), bowtie(), complete_undirected(4)):
            es = build_edge_space(g)
            nk = non_k_cycling(g, 2)
            assert nk.matrix == es.hashimoto
            assert nk.paths == tuple((u, v) for u, v, _ in g.edges)

    def test_directed_3cycle_k3_zero(self):
        nk = non_k_cycling(directed_cycle(3), 3)
        assert nk.matrix.nrows == 3
        assert nk.matrix.is_zero()

    def test_k4_rowsums(self):
        nk = non_k_cycling(complete_undirected(4), 2)
        assert nk.matrix.nrows == 12
        assert all(sum(row) == 2 for row in nk.matrix.data)

    def test_k_above_order_empty(self):
        nk = non_k_cycling(directed_cycle(3), 4)
        assert nk.matrix.nrows == 0 and nk.paths == ()

    def test_weighted_rejected(self):
        with pytest.raises(WeightedUnsupportedError):
            non_k_cycling(weighted_3cycle(), 2)


class TestSpectralGapTheorem:
    """Strongly connected graphs with two long-enough distinct-vertex cycles
    push the non-k-cycling radius above one."""

    def test_two_triangles_k2(self):
        nk = non_k_cycling(bowtie(), 2)
        pr = perron_radius(nk.matrix)
        assert pr.lower > 1

    def test_two_squares_k3(self):
        nk = non_k_cycling(two_squares(), 3)
        pr = perron_radius(nk.matrix)
        assert pr.lower > 1


class TestOneBuildPerGraph:
    """`Graph.edge_space` builds the edge space on first read, and every
    consumer of the graph reads that one."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return build_edge_space(g)

        monkeypatch.setattr(graphs_mod, "build_edge_space", counting)
        return calls

    def test_cached_on_the_graph(self, builds):
        g = example1()
        assert g.edge_space is g.edge_space
        assert len(builds) == 1 and builds[0] is g

    def test_freed_without_the_cycle_collector(self):
        # the edge space keeps n, not the graph, so dropping the graph
        # frees it, its edge space and the cached vertex plan at once
        g = example1()
        es = weakref.ref(g.edge_space)
        assert g.edge_space.n == g.n and g.edge_space.vertex_plan.ell == 1
        graph = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert graph() is None and es() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("argv", [
        ["centrality", "--mode", "weighted", "--t", "1/200"],
        ["verify"],
        ["verify", "--identity", "weighted-ihara"],
        ["analyze"],
    ])
    def test_one_build_per_command(self, builds, tmp_path, argv):
        path = tmp_path / "g.tsv"
        path.write_text("1\t2\n2\t1\n2\t3\n3\t4\n4\t2\n")
        code, _ = run_command([*argv, str(path)])
        assert code == 0
        assert len(builds) == 1
