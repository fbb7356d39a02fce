import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbwalks import (
    Matrix,
    PolyMatrix,
    Polynomial,
    bipartite_component_count,
    build_graph,
    build_unweighted,
    directed_dgl,
    eigen_report,
    is_one_defective,
    laplacian_bundle,
    polymat_det,
    prune_reciprocal_leaves,
    scc_decompose,
    smith_form,
    tau_dgl,
    undirected_part,
)
from nbwalks.errors import (
    IrrationalLambdaUnsupportedError,
    SingularPolyMatrixError,
    TauOutOfRangeError,
    WeightedUnsupportedError,
)
from nbwalks.graphs import connected_components_undirected
from nbwalks.laplacians import _deformed_laplacian
from nbwalks.polys import _local_partials, poly_gcd, root_multiplicity

from helpers import (
    all_digraphs,
    bowtie,
    digraphs,
    directed_cycle,
    example1,
    is_strongly_connected,
    polymatrix_from_coefficients,
    polynomial_divmod,
    random_connected_graph,
    random_digraph,
    reference_deformed_coefficients,
    reference_deformed_laplacian,
    sec4_graph,
    single_recip_edge,
    six_vertex_two_component,
    undirected_cycle,
    undirected_path,
    unit_weight_version,
    with_random_reciprocal_leaf,
    weighted_3cycle,
)

X = Polynomial([0, 1])


class TestBuilders:
    def test_isolated_node(self):
        m = directed_dgl(build_unweighted([], vertices=[1]))
        assert m.entries[0][0] == Polynomial([1, 0, -1])
        assert m.grade == 2

    def test_undirected_drops_cubic(self):
        m = directed_dgl(undirected_cycle(4))
        assert m.grade == 2
        a = undirected_cycle(4).adjacency()
        assert m.coefficient(1) == -a
        assert m.coefficient(2) == Matrix.identity(4)  # degree 2 everywhere

    def test_example1_coefficients(self):
        g = example1()
        m = directed_dgl(g)
        a = g.adjacency()
        s = undirected_part(g).adjacency()
        d = Matrix.diagonal([1, 1, 0, 0])
        eye = Matrix.identity(4)
        assert m.coefficient(0) == eye
        assert m.coefficient(1) == -a
        assert m.coefficient(2) == d - eye
        assert m.coefficient(3) == a - s

    def test_tau_one_reproduces_directed(self):
        for g in (example1(), bowtie(), directed_cycle(4)):
            assert tau_dgl(g, 1) == directed_dgl(g)

    def test_tau_range(self):
        with pytest.raises(TauOutOfRangeError):
            tau_dgl(example1(), 0)
        with pytest.raises(TauOutOfRangeError):
            tau_dgl(example1(), F(3, 2))

    def test_weighted_rejected(self):
        with pytest.raises(WeightedUnsupportedError):
            directed_dgl(weighted_3cycle())

    def test_bundle_relations(self):
        g = example1()
        b = laplacian_bundle(g)
        assert b.deformed.eval_at(1) == b.laplacian
        assert b.deformed.eval_at(-1) == b.signless_laplacian
        # deformed equals the undirected-part form plus (t^3 - t)(A - S)
        a_minus_s = b.deformed.coefficient(3)
        bridge = polymatrix_from_coefficients(
            [
                Matrix.zeros(g.n, g.n),
                -a_minus_s,
                Matrix.zeros(g.n, g.n),
                a_minus_s,
            ],
            grade=3,
        )
        assert b.deformed == b.undirected_part_dgl + bridge
        assert (b.arc_count, b.reciprocated_count) == (5, 2)


class TestArcBuilder:
    """M_tau(t) read off the arc list against the dense A, S, D reference
    and the builder with one Polynomial per entry."""

    TAUS = (F(0), F(1, 3), F(1, 2), F(1))
    WEIGHTS = (F(1), F(2), F(3), F(1, 2), F(2, 3), F(5, 4), F(7, 3))

    def graphs(self):
        rng = random.Random(1010)
        yield build_graph([])
        yield build_unweighted([], vertices=[1])
        yield build_unweighted([], vertices=[1, 2, 3])
        yield build_unweighted([(1, 2)], vertices=[1, 2, 3])
        yield weighted_3cycle()
        yield example1()
        yield bowtie()
        for _ in range(12):
            n = rng.randint(2, 7)
            extra = rng.randint(0, (n - 1) * (n - 2) // 2)
            yield random_digraph(rng, n, rng.choice([0.2, 0.5, 0.8]), weighted=True)
            yield random_connected_graph(rng, n, extra, rng.choice([0.0, 0.5]))
            # every arc reciprocated, weights differing by direction
            pairs = random_connected_graph(rng, n, extra).edges
            yield build_graph([(u, v, rng.choice(self.WEIGHTS)) for u, v, _ in pairs],
                              vertices=range(n + 1))

    def test_equals_reference(self):
        grades = set()
        for g in self.graphs():
            for tau in self.TAUS:
                got = _deformed_laplacian(g, tau)
                dense = polymatrix_from_coefficients(reference_deformed_coefficients(g, tau))
                for want in (dense, reference_deformed_laplacian(g, tau)):
                    assert got.entries == want.entries, (g, tau)
                    assert got.grade == want.grade, (g, tau)
                assert (got.nrows, got.ncols) == (g.n, g.n)
                grades.add(got.grade)
        assert grades == {1, 2, 3}

    def test_grades(self):
        recip_weighted = single_recip_edge(2, F(1, 3))
        assert _deformed_laplacian(recip_weighted, F(1, 2)).grade == 2
        assert _deformed_laplacian(weighted_3cycle(), F(1, 2)).grade == 3
        assert _deformed_laplacian(weighted_3cycle(), F(0)).grade == 1
        assert _deformed_laplacian(build_graph([]), F(1)).grade == 2

    def test_weights_kept_at_tau_zero(self):
        g = weighted_3cycle()
        m = _deformed_laplacian(g, F(0))
        assert m == polymatrix_from_coefficients([Matrix.identity(3), -g.adjacency()])

    def test_zero_entries_shared(self):
        m = _deformed_laplacian(directed_cycle(5), F(1, 2))
        zeros = {id(e) for row in m.entries for e in row if e.is_zero()}
        assert len(zeros) == 1
        assert len({id(e) for row in m.ints for e in row if not e}) == 1


# unit digraphs at every tau, weighted ones at tau = 0 (the only tau the
# weighted builder serves); n = 0 and arcless graphs are among them
_LAPLACIAN_CASES = st.one_of(
    st.tuples(digraphs(max_n=6, weighted=False), st.sampled_from(TestArcBuilder.TAUS)),
    st.tuples(digraphs(max_n=6, weighted=True), st.just(F(0))),
)
_POINTS = (F(0), F(-1), F(2), F(1, 3), F(-5, 7))


def _with_polynomial_view(case):
    g, tau = case
    return g, _deformed_laplacian(g, tau), reference_deformed_laplacian(g, tau)


class TestIntegerRows:
    """The integer coefficient rows of M_tau(t) against the builder with one
    Polynomial per entry."""

    @settings(max_examples=80, deadline=None)
    @given(case=_LAPLACIAN_CASES)
    @example(case=(build_graph([]), F(1, 3)))
    @example(case=(build_unweighted([], vertices=[1, 2]), F(1, 2)))
    @example(case=(build_unweighted([(1, 2), (2, 3), (3, 2)]), F(1, 3)))
    def test_equal_matrix(self, case):
        _, got, want = _with_polynomial_view(case)
        assert got == want and hash(got) == hash(want)
        assert got.entries == want.entries
        assert got.grade == want.grade

    @settings(max_examples=80, deadline=None)
    @given(case=_LAPLACIAN_CASES, k=st.sampled_from([1, 2, 3, 6, -1, -4]))
    def test_canonical_rows(self, case, k):
        """The same value from Polynomial entries, from the builder's rows
        and from those rows times k over k * den has one (ints, den)."""
        _, got, want = _with_polynomial_view(case)
        from_polys = PolyMatrix(want.entries, want.grade)
        from_rows = PolyMatrix([[[k * c for c in e] for e in row] for row in got.ints],
                               got.grade, k * got.den)
        for m in (from_polys, from_rows):
            assert (m.ints, m.den, m.grade) == (got.ints, got.den, got.grade)
        coefficients = [c for row in got.ints for e in row for c in e]
        assert got.den > 0 and gcd(got.den, *coefficients) == 1
        assert all(type(e) is tuple and (not e or e[-1]) for row in got.ints for e in row)
        assert len({id(e) for row in got.ints for e in row if not e}) <= 1

    @settings(max_examples=80, deadline=None)
    @given(case=_LAPLACIAN_CASES)
    def test_eval_at_and_coefficients(self, case):
        g, got, want = _with_polynomial_view(case)
        for t in _POINTS:
            assert got.eval_at(t) == Matrix([[e(t) for e in row] for row in want.entries],
                                            ncols=g.n), t
        for k in range(got.grade + 2):
            assert got.coefficient(k) == Matrix(
                [[e.coeffs[k] if k <= e.degree else 0 for e in row] for row in want.entries],
                ncols=g.n), k


class TestKernelsOnIntegerRows:
    """polymat_det, smith_form and _local_partials read the integer rows
    directly: they must agree with the same kernels on the Polynomial-entry
    reference and on a copy whose rows are scaled by nonzero rationals
    (a unit of Q[t] per row, so the Smith form and the partial
    multiplicities stay, and the determinant scales by their product)."""

    @settings(max_examples=40, deadline=None)
    @given(g=digraphs(max_n=7, weighted=False),
           tau=st.sampled_from([F(1, 3), F(1, 2), F(1)]),
           scales=st.lists(st.sampled_from([F(1), F(-2), F(3, 5), F(-7, 4)]),
                           min_size=7, max_size=7))
    def test_kernels_agree(self, g, tau, scales):
        got, want = _deformed_laplacian(g, tau), reference_deformed_laplacian(g, tau)
        scaled = PolyMatrix([[c * e for e in row] for c, row in zip(scales, want.entries)],
                            want.grade)
        det = polymat_det(got)
        assert det == polymat_det(want)
        product = F(1)
        for c in scales[:g.n]:
            product *= c
        assert polymat_det(scaled) == det * product
        sf = smith_form(got)
        assert sf.invariants == smith_form(want).invariants == smith_form(scaled).invariants
        for lam in {1 / tau, F(1), F(-1)}:
            order = root_multiplicity(det, lam) + 1
            partials = _local_partials(got, lam, order)
            assert partials == sf.partial_multiplicities(lam)
            assert partials == _local_partials(want, lam, order)
            assert partials == _local_partials(scaled, lam, order)


class TestSmithGolden:
    def test_sec4_before_and_after_pruning(self):
        g = sec4_graph()
        sf = smith_form(tau_dgl(g, F(1, 2)))
        t2m4 = Polynomial([-4, 0, 1])
        last = Polynomial([16, 0, -8, -16, 1, 0, 0, 1])
        assert sf.invariants == (Polynomial([1]), t2m4, t2m4, last)

        pruned = prune_reciprocal_leaves(g)
        sfp = smith_form(tau_dgl(pruned, F(1, 2)))
        last_pruned = Polynomial([4, 0, -1, -4, 0, 1])
        assert sfp.invariants == (t2m4, t2m4, last_pruned)

        # downweighted pruning changes the spectra: apart from the structural
        # +-1/tau factor t^2 - 4, which both carry, the roots are disjoint
        assert poly_gcd(last, last_pruned) == t2m4
        cofactors = (polynomial_divmod(p, t2m4)[0] for p in (last, last_pruned))
        assert poly_gcd(*cofactors) == Polynomial([1])

    def test_six_vertex_golden(self):
        g = six_vertex_two_component()
        sf = smith_form(directed_dgl(g))
        e2 = Polynomial([1, 1, 1])
        one = Polynomial([1])
        lin = Polynomial([-1, 1])
        assert sf.invariants == (
            one,
            one,
            one,
            one,
            lin * e2**2,
            lin**3 * e2**2,
        )


class TestEigenReport:
    def test_smith_example_at_zero(self):
        m = PolyMatrix(
            [
                [Polynomial([1]), Polynomial(), Polynomial()],
                [Polynomial(), Polynomial([0, 1]), Polynomial()],
                [Polynomial(), Polynomial(), Polynomial([0, 1, -2, 1])],
            ]
        )
        rep = eigen_report(m, 0)
        assert (rep.algebraic, rep.geometric) == (2, 2)
        assert rep.partials == (1, 1)

    def test_tree_at_one(self):
        g = undirected_path(4)
        rep = eigen_report(directed_dgl(g), 1)
        assert rep.geometric == len(connected_components_undirected(undirected_part(g)))

    def test_four_cycle_at_minus_one(self):
        g = undirected_cycle(4)
        rep = eigen_report(directed_dgl(g), -1)
        assert rep.geometric == 1 == bipartite_component_count(undirected_part(g))

    def test_float_rejected(self):
        with pytest.raises(IrrationalLambdaUnsupportedError):
            eigen_report(directed_dgl(undirected_cycle(3)), 0.5)

    def test_singular_rejected(self):
        z = PolyMatrix([[Polynomial(), Polynomial()], [Polynomial(), Polynomial()]])
        with pytest.raises(SingularPolyMatrixError):
            eigen_report(z, 1)

    def test_consistency_on_random_graphs(self):
        rng = random.Random(61)
        for _ in range(25):
            g = random_digraph(rng, rng.randint(2, 5), rng.choice([0.4, 0.7]))
            m = directed_dgl(g)
            for lam in (F(1), F(-1)):
                rep = eigen_report(m, lam)
                assert rep.geometric <= rep.algebraic
                assert sum(rep.partials) == rep.algebraic
                assert len(rep.partials) == rep.geometric


# ---- partial multiplicities by the local elimination -------------------------

TAUS = (F(1), F(1, 2), F(1, 3))


@st.composite
def unit_digraphs(draw):
    n = draw(st.integers(2, 6))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(arcs), min_size=1, unique=True))
    return build_unweighted(chosen, vertices=range(n))


# defective at 1/tau: the triangle and the 4-cycle at tau = 1 (partial 2),
# the directed 3-cycle at tau = 1 (1, 1, 2), one reciprocal edge at tau = 1/2
# (partial 2); the 4-cycle also has the partial 2 at -1
DEFECTIVE = (
    (undirected_cycle(3), F(1)),
    (undirected_cycle(4), F(1)),
    (directed_cycle(3), F(1)),
    (single_recip_edge(), F(1, 2)),
)


class TestLocalPartials:
    """`polys._local_partials` against the global Smith form as oracle."""

    @staticmethod
    def _check(g, tau):
        m = tau_dgl(g, tau)
        sf = smith_form(m)
        det = polymat_det(m)
        largest = 0
        for lam in (1 / tau, F(1), F(-1), F(0), F(1, 2), F(2)):
            want = sf.partial_multiplicities(lam)
            assert _local_partials(m, lam, root_multiplicity(det, lam) + 1) == want, (lam, want)
            largest = max(largest, *want, 0)
        return sf.partial_multiplicities(1 / tau), largest

    @settings(max_examples=80, deadline=None)
    @given(g=unit_digraphs(), tau=st.sampled_from(TAUS))
    @example(g=DEFECTIVE[0][0], tau=F(1))
    @example(g=DEFECTIVE[3][0], tau=F(1, 2))
    def test_equal_to_smith_partials(self, g, tau):
        self._check(g, tau)

    def test_lowest_order_pivot(self):
        # [[t, 1], [t**2, 2 t]] has invariants (1, t**2): the entry 1 must
        # be the first pivot, as the lowest in order at 0, though t comes
        # first in its row
        t = Polynomial([0, 1])
        m = PolyMatrix([[t, Polynomial([1])], [t * t, 2 * t]])
        assert _local_partials(m, F(0), 3) == (2,) == smith_form(m).partial_multiplicities(0)

    def test_defective_cases(self):
        for g, tau in DEFECTIVE:
            assert is_one_defective(g, tau)
            at_one, largest = self._check(g, tau)
            assert max(at_one) == largest == 2, g.edges

    def test_order_at_or_below_largest_partial_raises(self):
        for g, tau in DEFECTIVE:
            m = tau_dgl(g, tau)
            lam = 1 / tau
            partials = smith_form(m).partial_multiplicities(lam)
            assert _local_partials(m, lam, max(partials) + 1) == partials
            for order in range(max(partials) + 1):
                with pytest.raises(RuntimeError):
                    _local_partials(m, lam, order)


class TestDefectiveness:
    def test_triangle(self):
        assert is_one_defective(undirected_cycle(3), 1)

    def test_tree(self):
        assert not is_one_defective(undirected_path(3), 1)

    def test_bowtie(self):
        g = bowtie()
        assert 2 * g.m - g.reciprocated_arc_count() == 12
        assert not is_one_defective(g, 1)

    def test_against_smith_partials(self):
        # strongly connected digraphs on 3 vertices, both tau values
        for g in all_digraphs(3):
            if not is_strongly_connected(g):
                continue
            for tau in (F(1, 2), F(1)):
                m = tau_dgl(g, tau)
                partials = smith_form(m).partial_multiplicities(1 / tau)
                defective = any(p >= 2 for p in partials)
                assert defective == is_one_defective(g, tau)

    def test_defectiveness_trichotomy(self):
        rng = random.Random(19)
        checked = 0
        while checked < 60:
            g = random_digraph(rng, rng.randint(2, 5), rng.choice([0.3, 0.5, 0.8]))
            if not is_strongly_connected(g):
                continue
            checked += 1
            comp = scc_decompose(g).components[0]
            # tau = 1: defective iff exactly one cycle in the undirectization
            assert is_one_defective(g, 1) == (comp.cycle_class == "one_cycle")
            # tau < 1: defective iff the undirectization is a tree
            assert is_one_defective(g, F(1, 2)) == (
                comp.cycle_class == "tree"
                and 2 * g.m - g.reciprocated_arc_count() == g.n
            )


class TestStructuralInvariants:
    def test_block_triangular_determinant_product(self):
        rng = random.Random(29)
        for _ in range(12):
            n1, n2 = rng.randint(2, 3), rng.randint(2, 3)
            g1 = random_digraph(rng, n1, 0.7)
            g2 = random_digraph(rng, n2, 0.7)
            triples = [(f"a{u}", f"a{v}") for u, v, _ in g1.edges]
            triples += [(f"b{u}", f"b{v}") for u, v, _ in g2.edges]
            # forward arcs only: block upper-triangular by construction
            triples.append(("a0", "b0"))
            g = build_unweighted(
                triples,
                vertices=[f"a{i}" for i in range(n1)] + [f"b{i}" for i in range(n2)],
            )
            det = polymat_det(directed_dgl(g))
            det1 = polymat_det(directed_dgl(g1))
            det2 = polymat_det(directed_dgl(g2))
            assert det == det1 * det2

    def test_leaf_pruning_preserves_determinant(self):
        rng = random.Random(43)
        for _ in range(20):
            base = random_digraph(rng, rng.randint(2, 5), rng.choice([0.4, 0.7]))
            g = with_random_reciprocal_leaf(rng, unit_weight_version(base))
            pruned = prune_reciprocal_leaves(g)
            det_g = polymat_det(directed_dgl(g))
            det_p = polymat_det(directed_dgl(pruned))
            assert det_g == det_p
            rep_g = eigen_report(directed_dgl(g), 1)
            rep_p = eigen_report(directed_dgl(pruned), 1)
            assert rep_g.geometric == rep_p.geometric

    def test_plus_minus_one_multiplicities_small(self):
        # all loop-free digraphs on 3 vertices
        for g in all_digraphs(3):
            m = directed_dgl(g)
            det = polymat_det(m)
            assert det(1) == 0
            gu = undirected_part(g)
            comp_count = len(connected_components_undirected(gu))
            assert g.n - m.eval_at(1).rank() == comp_count
            bip = bipartite_component_count(gu)
            assert g.n - m.eval_at(-1).rank() == bip

    def test_spectrum_cases(self):
        # (a) trees: only roots are +-1
        tree = undirected_path(4)
        det = polymat_det(directed_dgl(tree))
        unimodular = Polynomial([-1, 0, 1]) ** tree.n
        assert polynomial_divmod(unimodular, det)[1].is_zero()
        # (b) one cycle of length 3: roots within cube roots of unity and +-1
        det1 = polymat_det(directed_dgl(example1()))
        allowed = (Polynomial([-1, 0, 0, 1]) * Polynomial([-1, 0, 1])) ** example1().n
        assert polynomial_divmod(allowed, det1)[1].is_zero()
        # (c) two cycles: a root strictly inside (0, 1) exists
        from nbwalks import real_roots

        det2 = polymat_det(directed_dgl(bowtie()))
        assert real_roots(det2, 0, 1, include_hi=False)
