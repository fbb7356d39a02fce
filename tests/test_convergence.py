import random
from fractions import Fraction as F

import pytest

from nbwalks import (
    build_graph,
    nbtw_recurrence,
    perron_radius,
    radius_btdw,
    radius_unweighted,
    radius_weighted,
    tau_dgl,
    weighted_nbtw,
    build_edge_space,
    btdw_recurrence,
)
from nbwalks.convergence import Bound
from nbwalks.polys import polymat_det, squarefree_decomposition
from nbwalks.errors import TauOutOfRangeError, WeightedUnsupportedError

from helpers import (
    bowtie,
    connected_undirected_graphs,
    downweighted_transfer,
    example1,
    random_connected_graph,
    random_digraph,
    single_recip_edge,
    undirected_cycle,
    undirected_path,
    weighted_3cycle,
)

TOL = F(1, 10**10)


def growth_rate(tables, k):
    top = max(x for row in tables[k].data for x in row)
    if top == 0:
        return 0.0
    return float(top) ** (1.0 / k)


class TestBound:
    def test_exact(self):
        b = Bound.exact(F(1, 2))
        assert b.certifies_below(F(1, 3)) and not b.certifies_below(F(1, 2))

    def test_interval_collapses_to_exact(self):
        assert Bound.interval(F(1, 2), F(1, 2)).kind == "exact"

    def test_infinite(self):
        assert Bound.infinite().certifies_below(10**9)

    def test_overlap(self):
        assert Bound.interval(0, 2).overlaps(Bound.exact(1))
        assert not Bound.interval(0, 1).overlaps(Bound.interval(2, 3))

    def test_decimal(self):
        assert Bound.exact(F(1, 4)).decimal() == "0.25"
        assert Bound.infinite().decimal() == "inf"


class TestUnweightedRadius:
    def test_forest(self):
        rep = radius_unweighted(undirected_path(4))
        assert rep.case_label == "AllTrees"
        assert rep.r.is_infinite()
        assert rep.mu == Bound.exact(1)
        assert rep.rho.nilpotent

    def test_example1(self):
        rep = radius_unweighted(example1())
        assert rep.case_label == "SomeOneCycleNoneMore"
        assert rep.r == Bound.exact(1)

    def test_cycles(self):
        for length in (3, 4, 5):
            rep = radius_unweighted(undirected_cycle(length))
            assert rep.case_label == "SomeOneCycleNoneMore"
            assert rep.r == Bound.exact(1)

    def test_bowtie(self):
        rep = radius_unweighted(bowtie())
        assert rep.case_label == "SomeMultiCycle"
        assert rep.r.kind == "interval"
        assert rep.r.width() <= F(1, 10**12)
        inv = Bound.interval(1 / rep.rho.upper, 1 / rep.rho.lower)
        assert rep.r.overlaps(inv)
        assert rep.r.width() + inv.width() <= TOL

    def test_weighted_rejected(self):
        with pytest.raises(WeightedUnsupportedError):
            radius_unweighted(weighted_3cycle())

    def test_trichotomy_against_growth(self):
        graphs = list(connected_undirected_graphs(4))
        rng = random.Random(3)
        graphs += [random_digraph(rng, 5, d) for d in (0.3, 0.5, 0.8) for _ in range(5)]
        for g in graphs:
            rep = radius_unweighted(g)
            tables = nbtw_recurrence(g, 60).tables
            rate = growth_rate(tables, 60)
            if rep.case_label == "AllTrees":
                assert all(
                    tables[k].is_zero() for k in range(2 * g.n + 1, 61)
                )
            elif rep.case_label == "SomeOneCycleNoneMore":
                assert abs(rate - 1.0) <= 0.08, (g.edges, rate)
            else:
                rho = float(rep.rho.upper)
                assert abs(rate - rho) <= 0.05 * rho, (g.edges, rate, rho)


class TestWeightedRadius:
    def test_unit_weights_agree_with_unweighted(self):
        for g in (example1(), bowtie(), undirected_cycle(4)):
            ru = radius_unweighted(g)
            rw = radius_weighted(g)
            assert rw.case_label == ru.case_label
            if ru.r.is_infinite():
                assert rw.r.is_infinite()
            else:
                assert rw.r.overlaps(ru.r)

    def test_weighted_tree_infinite(self):
        g = build_graph([(1, 2, F(7, 3)), (2, 1, F(2)), (2, 3, F(1, 5)), (3, 2, F(9))])
        rep = radius_weighted(g)
        assert rep.r.is_infinite() and rep.rho.nilpotent

    def test_weighted_3cycle(self):
        rep = radius_weighted(weighted_3cycle())
        assert rep.case_label == "SomeOneCycleNoneMore"
        # r = 30^(-1/3)
        assert rep.r.lo**3 <= F(1, 30) <= rep.r.hi**3
        assert rep.r.width() <= TOL
        assert rep.sigma_squared == 6
        # one cycle: r <= 1/sigma must hold
        assert rep.r.lo <= 1  # sanity
        assert any("sigma bound" in note for note in rep.notes)

    def test_sigma_squared_matches_dense_scan(self):
        # the minimum of w(e) w(f) over the dense Hashimoto support; on some
        # of these graphs the line graph's backtracking pairs go lower
        rng = random.Random(29)
        lower_with_backtracks = 0
        for _ in range(20):
            g = random_digraph(rng, rng.randint(3, 6), 0.3, weighted=True)
            es = build_edge_space(g)
            w = es.weight_diag

            def scan(support):
                return min((w[e, e] * w[f, f] for e in range(es.m) for f in range(es.m)
                            if support[e, f]), default=None)

            assert radius_weighted(g).sigma_squared == scan(es.hashimoto)
            lower_with_backtracks += scan(es.line_graph) != scan(es.hashimoto)
        assert lower_with_backtracks > 0

    def test_scaling_law(self):
        g = weighted_3cycle()
        c = F(7, 2)
        scaled = build_graph(
            [(g.labels[u], g.labels[v], w * c) for u, v, w in g.edges]
        )
        base = radius_weighted(g)
        big = radius_weighted(scaled)
        # rho scales by c exactly, so the scaled brackets must overlap
        assert Bound.interval(base.rho.lower * c, base.rho.upper * c).overlaps(
            Bound.interval(big.rho.lower, big.rho.upper)
        )
        assert Bound.interval(base.r.lo / c, base.r.hi / c).overlaps(big.r)

    def test_growth_rate_tracks_rho(self):
        rng = random.Random(8)
        done = 0
        while done < 8:
            g = random_digraph(rng, rng.randint(3, 6), 0.6, weighted=True)
            rep = radius_weighted(g)
            if rep.rho.nilpotent:
                continue
            done += 1
            tables = weighted_nbtw(g, 60).tables
            rate = growth_rate(tables, 60)
            rho = float(rep.rho.upper)
            assert abs(rate - rho) <= 0.05 * rho, (g.edges, rate, rho)


class TestBtdwRadius:
    def test_tau_one_matches_unweighted(self):
        for g in (example1(), bowtie(), undirected_path(3)):
            ru = radius_unweighted(g)
            rb = radius_btdw(g, 1)
            if ru.case_label == "SomeMultiCycle":
                assert rb.case_label == "SomeMultiCycle"
                assert rb.r.overlaps(ru.r)
            else:
                # single-cycle and tree cases are not characterized for btdw,
                # but tau = 1 nilpotency still reproduces the infinite radius
                if ru.r.is_infinite():
                    assert rb.r is not None and rb.r.is_infinite()

    def test_bowtie_half(self):
        rep = radius_btdw(bowtie(), F(1, 2))
        assert rep.case_label == "SomeMultiCycle"
        assert rep.r.hi < 2
        inv = Bound.interval(1 / rep.rho.upper, 1 / rep.rho.lower)
        assert rep.r.overlaps(inv)

    def test_tree_not_characterized(self):
        rep = radius_btdw(undirected_path(3), F(1, 2))
        assert rep.case_label == "NotCharacterized"
        assert rep.bounds is not None
        lower, upper = rep.bounds
        assert lower.lo <= upper.hi
        # series probe: terms at a point well below the certified lower
        # bound decay geometrically
        t = lower.lo / 2
        tables = btdw_recurrence(undirected_path(3), 60, F(1, 2)).tables
        top = max(x for x in tables[60].data[0])
        assert float(top) * float(t) ** 60 < 1e-10

    def test_single_edge_nilpotent_tau(self):
        # single reciprocal edge at tau = 1: no walk of length 2 survives
        rep = radius_btdw(single_recip_edge(), 1)
        assert rep.r is not None and rep.r.is_infinite()

    def test_tau_range(self):
        with pytest.raises(TauOutOfRangeError):
            radius_btdw(example1(), 0)
        with pytest.raises(TauOutOfRangeError):
            radius_btdw(example1(), 2)

    def test_radius_u30_shape(self):
        # the shape of the bench ladder's u30: 30 vertices, 46 edges beyond a
        # spanning tree, all reciprocal; det M_tau(t) is squarefree, and its
        # smallest root in (0, 1/tau) is the radius
        g = random_connected_graph(random.Random(30), 30, 46)
        assert g.is_unweighted() and g.m == 2 * 75
        for rep, tau in ((radius_unweighted(g), F(1)), (radius_btdw(g, F(1, 2)), F(1, 2))):
            det = polymat_det(tau_dgl(g, tau))
            assert squarefree_decomposition(det) == [(det.monic(), 1)]
            assert rep.case_label == "SomeMultiCycle"
            assert 0 < rep.r.lo <= rep.r.hi < 1 / tau
            assert rep.r.kind == "exact" or rep.r.width() <= F(1, 10**12)
            assert rep.r.overlaps(Bound.interval(1 / rep.rho.upper, 1 / rep.rho.lower))

    def test_mu_equals_inverse_blend_radius(self):
        g = bowtie()
        tau = F(1, 2)
        rep = radius_btdw(g, tau)
        es = build_edge_space(g)
        pr = perron_radius(downweighted_transfer(es, tau))
        assert rep.r.lo <= 1 / pr.lower and 1 / pr.upper <= rep.r.hi + F(1, 10**10)
