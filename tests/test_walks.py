import functools
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbwalks import (
    Graph,
    Matrix,
    Polynomial,
    btdw_recurrence,
    build_graph,
    build_unweighted,
    enumerate_btdw,
    enumerate_nbtw,
    generating_function_eval,
    nbt_katz_centrality,
    nbtw_recurrence,
    weighted_nbtw,
)
from nbwalks.errors import (
    AboveRadiusError,
    EnumerationBudgetExceededError,
    FloatRangeError,
    IterationBudgetExceededError,
    OmegaOutOfRangeError,
    PoleAtTError,
    WeightedUnsupportedError,
)
from nbwalks import convergence as convergence_mod
from nbwalks import walks as walks_mod
from nbwalks.convergence import radius_btdw, radius_unweighted, radius_weighted
from nbwalks.spectral import perron_radius
from nbwalks.walks import (
    _certified_below,
    _enumerate,
    _generating_function_times,
    _hashimoto_powers,
    _recurrence,
    _transfer_norm,
    walk_table,
    walk_tables_float,
)

from helpers import (
    all_digraphs,
    bowtie,
    complete_undirected,
    connected_undirected_graphs,
    dense_hashimoto_powers,
    digraphs,
    directed_cycle,
    downweighted_transfer,
    edge_resolvent,
    example1,
    fraction_enumerate,
    nonisomorphic_connected_undirected,
    random_connected_graph,
    random_digraph,
    reference_deformed_coefficients,
    single_recip_edge,
    undirected_cycle,
    undirected_path,
    weighted_3cycle,
)


def oracle_family():
    """Connected graphs on up to 5 vertices plus small digraph families."""
    for n in (1, 2, 3, 4):
        yield from connected_undirected_graphs(n)
    yield from nonisomorphic_connected_undirected(5)
    yield from all_digraphs(3)
    rng = random.Random(2024)
    for _ in range(40):
        yield random_digraph(rng, rng.randint(4, 5), rng.choice([0.3, 0.5, 0.8]))


class TestEnumerateNbtw:
    def test_3cycle_closed_walks(self):
        table = enumerate_nbtw(directed_cycle(3), 3)
        assert table.tables[3] == Matrix.identity(3)

    def test_length_one_is_adjacency(self):
        g = example1()
        assert enumerate_nbtw(g, 1).tables[1] == g.adjacency()

    def test_single_edge_no_length2(self):
        assert enumerate_nbtw(single_recip_edge(), 2).tables[2].is_zero()

    def test_budget_enforced(self):
        with pytest.raises(EnumerationBudgetExceededError):
            enumerate_nbtw(complete_undirected(5), 8, budget=50)
        # A backtrack weighs 0 at omega = 0 and is never taken, so both
        # oracles spend exactly one unit per non-backtracking walk.
        cases = [(complete_undirected(4), 5), (example1(), 6), (bowtie(), 5),
                 (undirected_path(4), 6), (directed_cycle(3), 4)]
        for g, k in cases:
            tables = nbtw_recurrence(g, k).tables[1:]
            steps = sum(x for table in tables for row in table.data for x in row)
            for budget in (steps - 1, steps):
                outcomes = []
                for run in (lambda: enumerate_nbtw(g, k, budget=budget),
                            lambda: enumerate_btdw(g, k, 0, budget=budget)):
                    try:
                        run()
                        outcomes.append(True)
                    except EnumerationBudgetExceededError:
                        outcomes.append(False)
                assert outcomes == [budget == steps] * 2, (g.edges, k, budget)

    def test_weighted_walks_multiply(self):
        table = enumerate_nbtw(weighted_3cycle(), 3)
        assert table.tables[3] == Matrix.identity(3).scale(30)

    def test_budget_spent_before_tables_grow(self):
        # Tables are allocated depth by depth as the search reaches them,
        # so an exhausted budget raises long before kmax + 1 of them exist.
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBudgetExceededError):
                enumerate_nbtw(undirected_cycle(3), 10**5, budget=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestIntegerOracle:
    """`_enumerate` on integer walk weights against the Fraction oracle it
    replaced: the same tables and the same steps charged to the budget."""

    OMEGAS = (F(0), F(1), F(1, 3), F(2, 7), F(5, 6))

    def graphs(self):
        rng = random.Random(31)
        yield example1()
        yield bowtie()
        yield weighted_3cycle()
        yield single_recip_edge(F(2, 3), F(5, 4))
        for _ in range(10):
            yield random_digraph(rng, rng.randint(2, 5), rng.choice((0.4, 0.7)),
                                 weighted=rng.random() < 0.7)

    def test_tables_and_budget_boundary(self):
        for g in self.graphs():
            for omega in self.OMEGAS:
                kmax = 5
                expected, steps = fraction_enumerate(g, kmax, omega, 10**9)
                assert _enumerate(g, kmax, omega, steps) == expected, (g.edges, omega)
                with pytest.raises(EnumerationBudgetExceededError):
                    _enumerate(g, kmax, omega, steps - 1)
                with pytest.raises(EnumerationBudgetExceededError):
                    fraction_enumerate(g, kmax, omega, steps - 1)

    def test_public_oracles(self):
        for g in self.graphs():
            assert enumerate_nbtw(g, 6).tables == fraction_enumerate(g, 6, F(0), 10**9)[0]
            if g.is_unweighted():
                table = enumerate_btdw(g, 6, F(2, 5))
                assert table.tables == fraction_enumerate(g, 6, F(2, 5), 10**9)[0]

    def test_unreached_depths_and_zero_length(self):
        g = single_recip_edge(F(3, 2), F(1, 5))
        tables = _enumerate(g, 4, F(0), None)
        assert tables == fraction_enumerate(g, 4, F(0), 10**9)[0]
        assert tables[1] == Matrix([[0, F(3, 2)], [F(1, 5), 0]])
        assert all(t.is_zero() for t in tables[2:])
        assert _enumerate(g, 0, F(1, 2), 0) == (Matrix.identity(2),)


class TestRecurrences:
    def test_path_p2(self):
        g = undirected_path(3)
        p2 = nbtw_recurrence(g, 2).tables[2]
        assert p2.data[0][2] == 1 and p2.data[2][0] == 1
        assert all(p2.data[i][i] == 0 for i in range(3))

    def test_matches_oracle_on_3cycle(self):
        g = directed_cycle(3)
        assert nbtw_recurrence(g, 8).tables == enumerate_nbtw(g, 8).tables

    def test_tree_vanishing(self):
        g = undirected_path(4)
        table = nbtw_recurrence(g, 2 * g.n + 3)
        for k in range(2 * g.n + 1, 2 * g.n + 4):
            assert table.tables[k].is_zero()

    def test_weighted_rejected(self):
        with pytest.raises(WeightedUnsupportedError):
            nbtw_recurrence(weighted_3cycle(), 3)


def reference_recurrence(g, kmax, tau):
    """The recurrence on Fraction matrices, step by step (the route before
    the integer tables)."""
    coeffs = reference_deformed_coefficients(g, tau)
    eye, a = coeffs[0], -coeffs[1]
    seq = [eye, a][: kmax + 1]
    for k in range(2, kmax + 1):
        nxt = a * seq[k - 1]
        for j in range(2, min(k, len(coeffs) - 1) + 1):
            nxt = nxt - coeffs[j] * seq[k - j]
        if k == 2 and tau:
            nxt = nxt - eye.scale(tau * tau)
        seq.append(nxt)
    return tuple(seq)


class TestIntegerTables:
    TAUS = (F(1), F(1, 2), F(2, 3), F(1, 7), F(0))

    def graphs(self):
        rng = random.Random(808)
        for n, extra, oneway in ((5, 1, 0.0), (6, 3, 0.0), (6, 2, 0.5), (7, 3, 0.4)):
            yield random_connected_graph(rng, n, extra, oneway)
        yield directed_cycle(4)
        yield build_unweighted([], vertices=[1])

    def test_recurrence_equals_reference(self):
        for g in self.graphs():
            for tau in self.TAUS:
                got = tuple(_recurrence(g, 24, tau))
                assert got == reference_recurrence(g, 24, tau), (g.edges, tau)

    def test_recurrence_short_lengths(self):
        g = random_connected_graph(random.Random(5), 5, 2, 0.5)
        for tau in self.TAUS:
            for kmax in range(4):
                assert tuple(_recurrence(g, kmax, tau)) == reference_recurrence(g, kmax, tau)

    def test_weighted_nbtw_equals_reference(self):
        rng = random.Random(4242)
        graphs = [random_digraph(rng, rng.randint(3, 6), 0.5, weighted=True) for _ in range(6)]
        graphs.append(build_graph([(1, 2, F(7, 9)), (2, 3, F(5, 12)), (3, 1, F(11, 4)),
                                   (2, 1, F(3, 10)), (3, 2, 6), (1, 3, F(1, 21))]))
        graphs += [build_unweighted([], vertices=[1, 2]), build_unweighted([], vertices=[1])]
        for g in graphs:
            for kmax in (0, 1, 2, 9):
                table = weighted_nbtw(g, kmax).tables
                assert table == dense_hashimoto_powers(g, kmax), (g.edges, kmax)


class TestHashimotoPowers:
    """The Hashimoto powers on the integer transfer rows equal the dense
    `Matrix` products, and build no dense edge matrix."""

    @settings(max_examples=80, deadline=None)
    @given(g=digraphs(), kmax=st.integers(0, 8))
    def test_equal_dense_products(self, g, kmax):
        assert tuple(_hashimoto_powers(g, kmax)) == dense_hashimoto_powers(g, kmax)

    def test_edgepower_table_builds_no_edge_matrix(self):
        for g in (bowtie(), weighted_3cycle(), example1(),
                  random_digraph(random.Random(3), 6, 0.5, weighted=True)):
            walk_table(g, 9, method="edgepower")
            assert not {"hashimoto", "weight_diag", "line_graph"} & set(vars(g.edge_space))


class TestNegativeLength:
    @pytest.mark.parametrize(
        "build",
        [
            lambda g: nbtw_recurrence(g, -1),
            lambda g: btdw_recurrence(g, -1, F(1, 2)),
            lambda g: weighted_nbtw(g, -1),
            lambda g: walk_tables_float(g, -1),
            lambda g: walk_tables_float(g, -1, omega=F(1, 2)),
            lambda g: enumerate_nbtw(g, -1),
            lambda g: enumerate_btdw(g, -1, F(1, 2)),
        ],
    )
    def test_rejected_by_every_route(self, build):
        with pytest.raises(ValueError, match="kmax must be nonnegative"):
            build(example1())

    def test_weighted_routes_rejected(self):
        for build in (lambda g: weighted_nbtw(g, -2), lambda g: walk_tables_float(g, -2)):
            with pytest.raises(ValueError, match="kmax must be nonnegative"):
                build(weighted_3cycle())


class TestOracleEquivalence:
    def test_family_up_to_k8(self):
        for g in oracle_family():
            kmax = 8
            rec = nbtw_recurrence(g, kmax).tables
            oracle = enumerate_nbtw(g, kmax).tables
            edge = weighted_nbtw(g, kmax).tables
            assert rec == oracle == edge, g.edges


class TestBtdw:
    def test_omega_one_is_adjacency_powers(self):
        g = example1()
        a = g.adjacency()
        table = btdw_recurrence(g, 6, 1)
        power = Matrix.identity(g.n)
        for k in range(7):
            assert table.tables[k] == power
            power = power * a

    def test_omega_zero_is_nbtw(self):
        g = example1()
        assert btdw_recurrence(g, 7, 0).tables == nbtw_recurrence(g, 7).tables

    def test_single_edge_downweighted(self):
        q = btdw_recurrence(single_recip_edge(), 3, F(1, 2))
        assert q.tables[2] == Matrix.identity(2).scale(F(1, 2))
        assert q.tables[3] == single_recip_edge().adjacency().scale(F(1, 4))

    def test_oracle_equivalence(self):
        rng = random.Random(77)
        graphs = [
            undirected_path(3),
            undirected_cycle(4),
            directed_cycle(3),
            example1(),
            bowtie(),
            complete_undirected(4),
        ] + [random_digraph(rng, rng.randint(2, 5), 0.5) for _ in range(6)]
        for g in graphs:
            for omega in (F(0), F(1, 4), F(1, 2), F(1)):
                rec = btdw_recurrence(g, 7, omega).tables
                oracle = enumerate_btdw(g, 7, omega).tables
                assert rec == oracle, (g.edges, omega)

    def test_omega_range(self):
        with pytest.raises(OmegaOutOfRangeError):
            btdw_recurrence(example1(), 3, F(3, 2))
        with pytest.raises(OmegaOutOfRangeError):
            enumerate_btdw(example1(), 3, -1)

    @pytest.mark.parametrize("omega", [2, -1, F(3, 2)])
    def test_centrality_omega_range(self, omega):
        with pytest.raises(OmegaOutOfRangeError, match=f"omega={omega} outside"):
            nbt_katz_centrality(example1(), F(1, 4), mode="btdw", omega=omega)


class TestWeightedNbtw:
    def test_unit_weights_match_recurrence(self):
        for g in (example1(), bowtie(), directed_cycle(4)):
            assert weighted_nbtw(g, 7).tables == nbtw_recurrence(g, 7).tables

    def test_weighted_3cycle_k3(self):
        table = weighted_nbtw(weighted_3cycle(), 3)
        assert table.tables[3] == Matrix.identity(3).scale(30)
        assert table.tables[1] == weighted_3cycle().adjacency()

    def test_matches_weighted_oracle(self):
        rng = random.Random(99)
        for _ in range(6):
            g = random_digraph(rng, rng.randint(2, 5), 0.5, weighted=True)
            assert weighted_nbtw(g, 6).tables == enumerate_nbtw(g, 6).tables

    def test_edgeless(self):
        g = build_unweighted([], vertices=[1, 2])
        table = weighted_nbtw(g, 3)
        assert table.tables[0] == Matrix.identity(2)
        assert all(table.tables[k].is_zero() for k in (1, 2, 3))


class TestGeneratingFunction:
    def test_identity_at_zero(self):
        for mode in ("nbtw", "weighted"):
            assert generating_function_eval(example1(), 0, mode) == Matrix.identity(4)
        assert generating_function_eval(example1(), 0, "btdw", omega=F(1, 2)) == Matrix.identity(4)

    def test_triangle_series_consistency(self):
        g = undirected_cycle(3)
        t = F(1, 2)
        phi = generating_function_eval(g, t, "nbtw")
        table = nbtw_recurrence(g, 60)
        acc = Matrix.zeros(3, 3)
        tk = F(1)
        for k in range(61):
            acc = acc + table.tables[k].scale(tk)
            tk *= t
        tail = phi - acc
        assert all(x >= 0 for row in tail.data for x in row)
        assert tail.abs_sum() <= F(1, 10**15)

    def test_btdw_on_weighted_graph(self):
        g = weighted_3cycle()
        t = F(1, 100)
        with pytest.raises(WeightedUnsupportedError):
            generating_function_eval(g, t, "btdw", omega=F(1, 2))
        expected = (Matrix.identity(3) - g.adjacency().scale(t)).inverse()
        assert generating_function_eval(g, t, "btdw", omega=1) == expected

    def test_pole_detected(self):
        with pytest.raises(PoleAtTError):
            generating_function_eval(undirected_cycle(3), 1, "nbtw")

    def test_weighted_equals_series(self):
        g = weighted_3cycle()
        t = F(1, 100)
        phi = generating_function_eval(g, t, "weighted")
        table = weighted_nbtw(g, 50)
        acc = Matrix.zeros(3, 3)
        tk = F(1)
        for k in range(51):
            acc = acc + table.tables[k].scale(tk)
            tk *= t
        assert (phi - acc).abs_sum() <= F(1, 10**40)

    def test_btdw_series(self):
        g = example1()
        t, omega = F(1, 5), F(1, 3)
        phi = generating_function_eval(g, t, "btdw", omega=omega)
        table = btdw_recurrence(g, 50, omega)
        acc = Matrix.zeros(4, 4)
        tk = F(1)
        for k in range(51):
            acc = acc + table.tables[k].scale(tk)
            tk *= t
        assert (phi - acc).abs_sum() <= F(1, 10**20)


class TestCentrality:
    def test_all_ones_at_zero(self):
        res = nbt_katz_centrality(example1(), 0)
        assert res.row_sums == (1, 1, 1, 1)

    def test_vertex_transitive_equal(self):
        res = nbt_katz_centrality(directed_cycle(3), F(1, 2))
        assert len(set(res.row_sums)) == 1

    def test_example1_against_truncated_series(self):
        g = example1()
        t = F(1, 4)
        res = nbt_katz_centrality(g, t)
        table = nbtw_recurrence(g, 80)
        acc = [F(0)] * g.n
        tk = F(1)
        for k in range(81):
            rows = table.tables[k].data
            for i in range(g.n):
                acc[i] += tk * sum(rows[i], F(0))
            tk *= t
        for exact, approx in zip(res.row_sums, acc):
            assert abs(exact - approx) <= F(1, 10**20)

    def test_above_radius_rejected(self):
        with pytest.raises(AboveRadiusError):
            nbt_katz_centrality(undirected_cycle(3), F(3, 2))
        with pytest.raises(AboveRadiusError):
            nbt_katz_centrality(bowtie(), F(9, 10))

    def test_weighted_mode(self):
        res = nbt_katz_centrality(weighted_3cycle(), F(1, 10), mode="weighted")
        assert res.converged
        assert all(x > 1 for x in res.row_sums)

    def test_classical_katz_mode(self):
        res = nbt_katz_centrality(example1(), F(1, 10), mode="btdw", omega=1)
        assert res.converged

    def test_omega_outside_btdw_refused(self):
        for g, mode in ((example1(), "nbtw"), (weighted_3cycle(), "weighted")):
            for omega in (F(1, 2), 0, 5):
                with pytest.raises(ValueError, match="omega applies to btdw mode only"):
                    nbt_katz_centrality(g, F(1, 10), mode=mode, omega=omega)
                with pytest.raises(ValueError, match="omega applies to btdw mode only"):
                    generating_function_eval(g, F(1, 10), mode, omega=omega)

    def test_row_sums_of_the_whole_generating_function(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_digraph(rng, rng.randint(2, 7), rng.choice([0.3, 0.6]))
            w = random_digraph(rng, rng.randint(2, 7), rng.choice([0.3, 0.6]), weighted=True)
            t = F(1, 4 * g.n)
            for graph, mode, omega in ((g, "nbtw", None), (g, "btdw", F(1, 3)),
                                       (g, "btdw", 1), (w, "weighted", None)):
                phi = generating_function_eval(graph, t, mode, omega=omega)
                res = nbt_katz_centrality(graph, t, mode=mode, omega=omega)
                assert res.row_sums == tuple(sum(row) for row in phi.data), (graph.edges, mode)

    def test_one_column_pole(self):
        ones = Matrix([[1]] * 3, 1, 1)
        for mode, omega in (("nbtw", None), ("btdw", F(0))):
            with pytest.raises(PoleAtTError):
                _generating_function_times(undirected_cycle(3), F(1), mode, omega, ones)


class TestFloatFastPath:
    def test_close_to_exact(self):
        g = bowtie()
        exact = nbtw_recurrence(g, 10).tables
        approx = walk_tables_float(g, 10)
        assert approx == [[[float(x) for x in row] for row in m.data] for m in exact]

    @pytest.mark.parametrize("route, build, kmax", [
        ("_recurrence", lambda: complete_undirected(5), 900),
        ("_hashimoto_powers", lambda: directed_cycle(3, [F(10**300)] * 3), 9),
    ])
    def test_overflow_builds_no_later_table(self, monkeypatch, route, build, kmax):
        built = []
        tables = getattr(walks_mod, route)

        def counted(*args):
            for table in tables(*args):
                built.append(table)
                yield table

        monkeypatch.setattr(walks_mod, route, counted)
        g = build()
        with pytest.raises(FloatRangeError):
            walk_tables_float(g, kmax)
        k0 = len(built) - 1
        assert 0 < k0 < kmax
        # tables 0 to k0 - 1 are in range, so k0 is the first one past it
        assert len(walk_tables_float(g, k0 - 1)) == k0


# ---- certifying t below the radius ------------------------------------------

EXTREME_WEIGHTS = tuple(F(x) for x in ("1e-30", "1e-15", "1/3", "2", "1e15", "1e30"))


def reweighted(g: Graph, rng: random.Random, pool) -> Graph:
    """g with every arc weight drawn from pool."""
    return build_graph([(g.labels[u], g.labels[v], rng.choice(pool)) for u, v, _ in g.edges],
                       vertices=g.labels)


def regular_graphs():
    """Graphs whose edge transfer matrices have equal row sums, so that
    rho(T) is ||T||_inf and the full report's radius is 1 / ||T||_inf."""
    k33 = [(i, j) for i in range(3) for j in range(3, 6)]
    return [undirected_cycle(4), complete_undirected(4), complete_undirected(5),
            build_unweighted(k33 + [(j, i) for i, j in k33]), directed_cycle(5)]


@st.composite
def shortcut_graphs(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "cycle", "regular"]))
    if kind == "random":
        g = random_digraph(rng, rng.randint(2, 6), rng.choice([0.2, 0.4, 0.7]))
    elif kind == "cycle":
        length = rng.randint(3, 6)
        g = directed_cycle(length - 1) if rng.random() < 0.5 else undirected_cycle(length)
    else:
        g = rng.choice(regular_graphs())
    weights = draw(st.sampled_from(["unit", "pool", "extreme"]))
    if weights == "pool":
        g = reweighted(g, rng, (F(1, 2), F(1, 3), F(2), F(3), F(5, 4)))
    elif weights == "extreme":
        g = reweighted(g, rng, EXTREME_WEIGHTS)
    return g


def full_report(g, mode, tau):
    """The radius report's decision on t, as centrality took it before the
    norm certificate came first."""
    if mode == "nbtw":
        return radius_unweighted(g).certifies_below
    if mode == "weighted":
        return radius_weighted(g).certifies_below
    if tau == 0:
        pr = walks_mod.perron_radius(g.adjacency())
        return lambda t: pr.nilpotent or t < 1 / pr.upper
    return radius_btdw(g, tau).certifies_below


def dense_transfer(g, tau) -> Matrix:
    es = g.edge_space
    return downweighted_transfer(es, tau) * es.weight_diag


class TestNormCertificate:
    """t with 2 t max(||T||_inf, 1) <= 1 is accepted without the radius
    report; the full report would have accepted it too."""

    @settings(max_examples=60, deadline=None)
    @given(g=shortcut_graphs(), scale=st.fractions(F(1, 4), F(4)))
    def test_never_accepts_what_the_report_refuses(self, g, scale):
        modes = [("weighted", None, F(1)), ("btdw", 1, F(0))]
        if g.is_unweighted():
            modes += [("nbtw", None, F(1)), ("btdw", 0, F(1)), ("btdw", F(1, 2), F(1, 2))]
        # a Perron bracket that does not close within 500 steps (weights
        # 1e-30 and 1e30 on one graph can do that) leaves the report
        # undecided; only the norm certificate answers there
        budgeted = functools.partial(perron_radius, budget=500)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convergence_mod, "perron_radius", budgeted)
            patch.setattr(walks_mod, "perron_radius", budgeted)
            for mode, omega, tau in modes:
                norm = _transfer_norm(g.edge_space, tau)
                dense = dense_transfer(g, tau)
                assert norm == max((sum(row) for row in dense.data), default=0)
                rows, den = g.edge_space.transfer_rows(tau)
                assert norm == F(max((sum(xs) for _, xs in rows), default=0), den)
                big = max(norm, 1)
                edge = 1 / (2 * big)
                try:
                    accepts = full_report(g, mode, tau)
                except IterationBudgetExceededError:
                    accepts = None
                for t in (edge, edge * (1 - F(1, 10**6)), edge * (1 + F(1, 10**6)),
                          edge * scale):
                    shortcut = 2 * t * big <= 1
                    if accepts is None:
                        if shortcut:
                            assert _certified_below(g, t, mode, omega)
                        else:
                            with pytest.raises(IterationBudgetExceededError):
                                _certified_below(g, t, mode, omega)
                        continue
                    full = accepts(t)
                    assert full or not shortcut, (g.edges, mode, omega, t)
                    assert _certified_below(g, t, mode, omega) == full, (g.edges, mode, omega, t)

    def test_regular_graphs_meet_the_norm(self):
        # rho(B) = ||B||_inf: the bound is tight and the edge point is
        # still accepted by the full report
        for g in regular_graphs():
            norm = _transfer_norm(g.edge_space, F(1))
            pr = perron_radius(g.edge_space.hashimoto)
            assert pr.lower <= norm <= pr.upper
            assert radius_unweighted(g).certifies_below(1 / (2 * max(norm, 1)))

    @pytest.mark.parametrize("mode, omega", [("nbtw", None), ("weighted", None),
                                             ("btdw", F(1, 2)), ("btdw", 1)])
    def test_small_t_builds_no_radius_report(self, monkeypatch, mode, omega):
        def refuse(*args):
            raise AssertionError("radius report built")
        for name in ("radius_unweighted", "radius_weighted", "radius_btdw", "perron_radius"):
            monkeypatch.setattr(walks_mod, name, refuse)
        g = bowtie()
        res = nbt_katz_centrality(g, F(1, 2 * g.n), mode=mode, omega=omega)
        assert res.converged
        with pytest.raises(AssertionError, match="radius report built"):
            nbt_katz_centrality(g, F(1, 2), mode=mode, omega=omega)


# ---- the weighted resolvent in vertex space ---------------------------------


def square_pairs(rng: random.Random, g: Graph) -> Graph:
    """g with about half its reciprocal pairs reweighted to w' = k**2 / w,
    so that t**2 w w' = 1 at the rational points t = +-1/k."""
    weights = {(u, v): w for u, v, w in g.edges}
    for (u, v), w in sorted(weights.items()):
        if u < v and (v, u) in weights and rng.random() < 0.5:
            weights[v, u] = rng.choice((F(1), F(2), F(3), F(1, 2))) ** 2 / w
    return build_graph([(g.labels[u], g.labels[v], w) for (u, v), w in weights.items()],
                       vertices=g.labels)


def pair_points(g: Graph, tau=1) -> set:
    """Every rational t with tau**2 t**2 w w' = 1 on a reciprocal pair."""
    es = g.edge_space
    points = set()
    for e, f in enumerate(es.reverse):
        if f is not None and tau:
            c = es.weights[e] * es.weights[f]
            a, b = math.isqrt(c.numerator), math.isqrt(c.denominator)
            if F(a, b) ** 2 == c:
                points.update({F(b, a) / tau, -F(b, a) / tau})
    return points


def same_resolvent(g: Graph, t, mode="weighted", omega=None) -> bool:
    """The vertex route of the family equals the edge-space reference at t,
    on the identity and on the all-ones column, and raises PoleAtTError
    exactly where the reference is singular; True at a pole."""
    ref = edge_resolvent(g, t, 1 if omega is None else 1 - omega)
    try:
        got = generating_function_eval(g, t, mode, omega)
    except PoleAtTError:
        got = None
    assert got == ref, (g.edges, mode, omega, t)
    ones = Matrix([[1]] * g.n, 1, 1)
    try:
        sums = _generating_function_times(g, t, mode, omega, ones)
    except PoleAtTError:
        sums = None
    assert sums == (None if ref is None else ref * ones), (g.edges, mode, omega, t)
    return ref is None


# triangles and cycles with rational poles: a directed 3-cycle of weight 2
# (pole 1/2, no pairs), a triangle of weight 2 one way round and 1 the
# other (poles 1/2 and 1, pair points irrational), and the unit triangle
# (poles at the pair points +-1)
POLE_GRAPHS = (
    lambda: directed_cycle(3, [2, 2, 2]),
    lambda: build_graph([(0, 1, 2), (1, 2, 2), (2, 0, 2), (1, 0, 1), (2, 1, 1), (0, 2, 1)]),
    lambda: undirected_cycle(3),
)


class TestVertexResolvent:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), weighted=st.booleans(),
           family=st.sampled_from([("nbtw", None), ("btdw", F(0)), ("btdw", F(1, 2)),
                                   ("btdw", F(1)), ("weighted", None)]),
           points=st.lists(st.fractions(F(-3), F(3), max_denominator=12), min_size=1,
                           max_size=4))
    def test_equals_the_edge_route(self, seed, weighted, family, points):
        # nbtw and btdw below omega = 1 take unit graphs only
        mode, omega = family
        rng = random.Random(seed)
        g = random_digraph(rng, rng.randint(2, 5), rng.choice([0.3, 0.6, 0.9]),
                           weighted=weighted)
        if mode == "weighted" or omega == 1:
            g = square_pairs(rng, g)
        elif weighted:
            g = build_unweighted([(g.labels[u], g.labels[v]) for u, v, _ in g.edges],
                                 vertices=g.labels)
        tau = 1 if omega is None else 1 - omega
        for t in sorted(set(points) | pair_points(g, tau)):
            same_resolvent(g, t, mode, omega)

    def test_plain_families_agree_on_unit_graphs(self):
        # nbtw, btdw at omega = 0 and weighted count the same walks, poles
        # included, also at the pair points +-1
        rng = random.Random(2020)
        for _ in range(60):
            g = random_digraph(rng, rng.randint(2, 6), rng.choice([0.3, 0.6, 0.9]))
            for t in (F(1), F(-1), F(1, 2), F(-1, 2), F(2)):
                values = []
                for mode, omega in (("nbtw", None), ("btdw", 0), ("weighted", None)):
                    try:
                        values.append(generating_function_eval(g, t, mode, omega))
                    except PoleAtTError:
                        values.append(None)
                assert values[0] == values[1] == values[2], (g.edges, t)

    def test_pair_points_and_poles(self):
        rng = random.Random(20261019)
        pairs = poles = 0
        graphs = [build() for build in POLE_GRAPHS]
        for _ in range(200):
            n = rng.randint(3, 6)
            g = random_connected_graph(rng, n, rng.randint(0, min(3, (n - 1) * (n - 2) // 2)),
                                       oneway=rng.choice([0.0, 0.3]), weighted=True)
            graphs.append(square_pairs(rng, g))
        for g in graphs:
            g_poly = g.edge_space.ihara_det
            candidates = {F(p, q) for p in range(-4, 5) for q in (1, 2, 3)}
            roots = {t for t in candidates if g_poly(t) == 0}
            for t in pair_points(g):
                same_resolvent(g, t)
                pairs += 1
            for t in roots | {F(1, 7), F(-2, 5)}:
                assert same_resolvent(g, t) == (t in roots), (g.edges, t)
                poles += t in roots
        assert pairs > 300 and poles >= 5

    def test_one_vertex_system_away_from_pair_points(self, monkeypatch):
        sizes = []
        solve = Matrix.solve

        def counted(self, rhs):
            sizes.append(self.nrows)
            return solve(self, rhs)

        monkeypatch.setattr(Matrix, "solve", counted)
        g = random_connected_graph(random.Random(5), 7, 3, oneway=0.3, weighted=True)
        u = random_connected_graph(random.Random(5), 7, 3, oneway=0.3)
        for graph, mode, omega in ((g, "weighted", None), (u, "nbtw", None),
                                   (u, "btdw", F(1, 2)), (u, "btdw", 1)):
            sizes.clear()
            generating_function_eval(graph, F(1, 50), mode, omega)
            assert sizes == [graph.n] and graph.m != graph.n
            sizes.clear()
            nbt_katz_centrality(graph, F(1, 50 * graph.n), mode=mode, omega=omega)
            assert sizes == [graph.n]
        # t**2 w w' = 1 on the pair a <-> b: the edge system, m rows
        sizes.clear()
        pair = build_graph([("a", "b", 2), ("b", "a", 2), ("b", "c", 1), ("c", "a", 1)])
        generating_function_eval(pair, F(1, 2), "weighted")
        assert sizes == [pair.m] and pair.m != pair.n
