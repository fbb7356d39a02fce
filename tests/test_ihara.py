import random
from fractions import Fraction as F

import pytest

from nbwalks import (
    Polynomial,
    build_edge_space,
    build_unweighted,
    directed_dgl,
    polymat_det,
    real_roots,
    tau_dgl,
    verify_flanders,
    verify_ihara_digraph,
    verify_lemma_suite,
    verify_tau_ihara,
    verify_weighted_ihara,
)
from nbwalks.errors import TauOutOfRangeError, WeightedUnsupportedError
from nbwalks.exact import Matrix

from helpers import (
    bowtie,
    complete_undirected,
    directed_cycle,
    downweighted_transfer,
    example1,
    random_connected_graph,
    random_digraph,
    single_recip_edge,
    undirected_cycle,
    undirected_path,
    weighted_3cycle,
)

FIXTURES = lambda: [
    example1(),
    directed_cycle(3),
    undirected_cycle(3),
    undirected_cycle(4),
    undirected_path(4),
    complete_undirected(4),
    bowtie(),
    build_unweighted([(1, 2)]),
    build_unweighted([], vertices=[1, 2]),
]


class TestIharaDigraph:
    def test_fixtures(self):
        for g in FIXTURES():
            cert = verify_ihara_digraph(g)
            assert cert.equal, g.edges
            assert cert.residual.is_zero()

    def test_undirected_exponent_uses_pair_count(self):
        # for undirected graphs b equals the classical undirected edge count
        g = undirected_cycle(4)
        cert = verify_ihara_digraph(g)
        assert cert.graph_summary["b"] == 4
        assert cert.graph_summary["m"] == 8

    def test_triangle_sides(self):
        g = undirected_cycle(3)
        cert = verify_ihara_digraph(g)  # b = n = 3, no balancing factor
        assert cert.lhs == polymat_det(directed_dgl(g))

    def test_weighted_rejected(self):
        with pytest.raises(WeightedUnsupportedError):
            verify_ihara_digraph(weighted_3cycle())


class TestTauIhara:
    def test_fixtures_across_tau(self):
        for g in FIXTURES():
            for tau in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
                cert = verify_tau_ihara(g, tau)
                assert cert.equal, (g.edges, tau)

    def test_tau_one_reduces_to_digraph_identity(self):
        g = example1()
        assert verify_tau_ihara(g, 1).lhs == verify_ihara_digraph(g).lhs

    def test_tau_zero_reduces_to_flanders(self):
        g = example1()
        assert verify_tau_ihara(g, 0).lhs == verify_flanders(g).lhs

    def test_range_checked(self):
        with pytest.raises(TauOutOfRangeError):
            verify_tau_ihara(example1(), F(5, 4))


class TestFlanders:
    def test_directed_cycle(self):
        cert = verify_flanders(directed_cycle(3))
        assert cert.equal
        assert cert.lhs == Polynomial([1, 0, 0, -1])

    def test_single_arc(self):
        cert = verify_flanders(build_unweighted([(1, 2)]))
        assert cert.equal and cert.lhs == Polynomial([1])

    def test_fixtures(self):
        for g in FIXTURES():
            assert verify_flanders(g).equal


class TestWeightedIhara:
    def test_unit_weights(self):
        for g in FIXTURES():
            cert = verify_weighted_ihara(g)
            assert cert.equal and cert.details.get("samples_consistent", True)

    def test_single_reciprocal_pair(self):
        w1, w2 = F(5, 2), F(3, 7)
        cert = verify_weighted_ihara(single_recip_edge(w1, w2))
        assert cert.equal
        assert cert.rhs == Polynomial([1, 0, -w1 * w2])

    def test_weighted_3cycle_empty_product(self):
        g = weighted_3cycle()
        cert = verify_weighted_ihara(g)
        assert cert.equal
        assert cert.rhs == Polynomial([1])  # no reciprocal pairs
        es = build_edge_space(g)
        step = es.hashimoto * es.weight_diag
        assert step.det_one_minus_t() == Polynomial([1, 0, 0, -30])

    def test_sample_count(self):
        g = example1()
        cert = verify_weighted_ihara(g)
        assert cert.details["sample_points"] == 2 * (g.n + g.m) + 1

    def test_u30_shape(self):
        # the shape of the bench ladder's u30 with weights: 30 vertices, 46
        # edges beyond a spanning tree, 30% of the edges one-way
        g = random_connected_graph(random.Random(30), 30, 46, oneway=0.3, weighted=True)
        assert not g.is_unweighted() and g.m == 2 * 75 - round(0.3 * 75)
        cert = verify_weighted_ihara(g)
        assert cert.equal
        assert cert.details["sample_points"] == 2 * (g.n + g.m) + 1


class TestDetailKeys:
    """The details of a certificate have the same keys with and without
    edges."""

    GRAPHS = (build_unweighted([], vertices=[1, 2]), build_unweighted([(1, 2)]))

    @pytest.mark.parametrize("g", GRAPHS, ids=["edgeless", "one-arc"])
    def test_weighted_ihara(self, g):
        details = verify_weighted_ihara(g).details
        assert list(details) == ["sample_points", "samples_consistent"]
        assert details["samples_consistent"] is True

    @pytest.mark.parametrize("g", GRAPHS, ids=["edgeless", "one-arc"])
    def test_resolvent_form(self, g):
        cert = verify_lemma_suite(g, F(1, 2))[-1]
        assert cert.identity == "resolvent_form"
        assert list(cert.details) == ["tau", "sample_points"]

    def test_edgeless_values(self):
        g = self.GRAPHS[0]
        assert verify_weighted_ihara(g).details == {"sample_points": 0,
                                                    "samples_consistent": True}
        assert verify_lemma_suite(g, F(1, 2))[-1].details == {"tau": "1/2",
                                                              "sample_points": 0}


class TestLemmaSuite:
    def test_example1(self):
        certs = verify_lemma_suite(example1(), F(1, 2))
        assert len(certs) == 4
        assert all(c.equal for c in certs)
        names = {c.identity for c in certs}
        assert names == {
            "backtrack_powers",
            "incidence_compression",
            "backtrack_char_poly",
            "resolvent_form",
        }

    def test_edgeless_vacuous(self):
        certs = verify_lemma_suite(build_unweighted([], vertices=[1, 2]), F(1, 2))
        assert all(c.equal for c in certs)

    def test_k4(self):
        assert all(c.equal for c in verify_lemma_suite(complete_undirected(4), F(1, 3)))


class TestRootCorrespondence:
    """Rational eigenvalues of the downweighted Laplacian away from +-1/tau
    are reciprocals of eigenvalues of the blended edge matrix."""

    def test_on_fixtures(self):
        for g in (example1(), bowtie(), undirected_cycle(4)):
            for tau in (F(1, 4), F(1, 2), F(3, 4)):
                det = polymat_det(tau_dgl(g, tau))
                es = build_edge_space(g)
                blend = downweighted_transfer(es, tau)
                eye = Matrix.identity(es.m)
                bound = 1 + max(abs(c) for c in det.coeffs)
                for rec in real_roots(det, -bound, bound):
                    if rec.value is None or abs(rec.value) == 1 / tau:
                        continue
                    lam = rec.value
                    assert (eye - blend.scale(lam)).det() == 0, (g.edges, tau, lam)


class TestRandomSuite:
    def test_thirty_random_graphs(self):
        rng = random.Random(1234)
        for i in range(30):
            n = rng.randint(2, 6)
            density = (0.2, 0.5, 0.8)[i % 3]
            weighted = i % 2 == 0
            g = random_digraph(rng, n, density, weighted=weighted)
            gu = build_unweighted(
                [(g.labels[u], g.labels[v]) for u, v, _ in g.edges], vertices=g.labels
            )
            assert verify_ihara_digraph(gu).equal
            assert verify_tau_ihara(gu, F(i % 5, 4) if i % 5 <= 4 else F(1)).equal
            assert verify_flanders(gu).equal
            assert verify_weighted_ihara(g).equal
            assert all(c.equal for c in verify_lemma_suite(gu, F(1, 2)))
