"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each (run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they appear).
"""

import random
from fractions import Fraction as F
from itertools import combinations

from nbwalks import (
    Matrix,
    PolyMatrix,
    Polynomial,
    build_unweighted,
    btdw_recurrence,
    build_graph,
    directed_dgl,
    eigen_report,
    enumerate_btdw,
    enumerate_nbtw,
    is_one_defective,
    laplacian_bundle,
    nbtw_recurrence,
    non_k_cycling,
    parse_graph,
    perron_radius,
    polymat_det,
    prune_reciprocal_leaves,
    radius_unweighted,
    radius_weighted,
    smith_form,
    tau_dgl,
    undirected_part,
    undirectization,
    verify_flanders,
    verify_ihara_digraph,
    verify_lemma_suite,
    verify_tau_ihara,
    verify_weighted_ihara,
    weighted_nbtw,
)
from nbwalks.convergence import Bound
from nbwalks.graphs import connected_components_undirected
from nbwalks.polys import poly_gcd

from nbwalks import bipartite_component_count

from helpers import (
    all_digraphs,
    assert_index_sum,
    bowtie,
    complete_undirected,
    connected_undirected_graphs,
    directed_cycle,
    example1,
    is_strongly_connected,
    nonisomorphic_connected_undirected,
    polymatrix_from_coefficients,
    polynomial_divmod,
    random_digraph,
    sec4_graph,
    single_recip_edge,
    six_vertex_two_component,
    two_squares,
    undirected_cycle,
    undirected_path,
    unit_weight_version,
    weighted_3cycle,
    with_random_reciprocal_leaf,
)

WIDTH_10 = F(1, 10**10)


def _report(num, label):
    print(f"\nACCEPTANCE {num}: PASS - {label}")


def test_criterion_01_example_reproduction():
    """Parsing the five-edge digraph reproduces its structure matrices."""
    g = parse_graph("1\t2\n2\t1\n2\t3\n3\t4\n4\t2\n")
    as_int = lambda m: [[int(x) for x in row] for row in m.data]
    assert as_int(g.adjacency()) == [
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
    ]
    assert as_int(undirected_part(g).adjacency()) == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    assert as_int(undirectization(g).adjacency()) == [
        [0, 1, 0, 0],
        [1, 0, 1, 1],
        [0, 1, 0, 1],
        [0, 1, 1, 0],
    ]
    _report(1, "example digraph matrices reproduced entrywise")


def test_criterion_02_smith_form_golden():
    """Exact Smith forms for the worked examples, zero tolerance."""
    one = Polynomial([1])
    lin = Polynomial([-1, 1])
    e2 = Polynomial([1, 1, 1])

    k3 = complete_undirected(3)
    assert smith_form(directed_dgl(k3)).invariants == (one, e2, e2 * lin**2)

    six = six_vertex_two_component()
    assert smith_form(directed_dgl(six)).invariants == (
        one,
        one,
        one,
        one,
        lin * e2**2,
        lin**3 * e2**2,
    )

    t2m4 = Polynomial([-4, 0, 1])
    g = sec4_graph()
    before = smith_form(tau_dgl(g, F(1, 2)))
    assert before.invariants == (
        one,
        t2m4,
        t2m4,
        Polynomial([16, 0, -8, -16, 1, 0, 0, 1]),
    )
    after = smith_form(tau_dgl(prune_reciprocal_leaves(g), F(1, 2)))
    assert after.invariants == (t2m4, t2m4, Polynomial([4, 0, -1, -4, 0, 1]))
    _report(
        2,
        "Smith-form golden values match exactly "
        "(gcd = t^2 - 1/tau^2 clause tested separately)",
    )


def _determinantal_invariants(m):
    """Invariant polynomials of a regular square polynomial matrix as the
    quotients d_k / d_(k-1) of its determinantal divisors, where d_k is the
    monic gcd of all k x k minors.  This route never runs the elimination in
    ``smith_form``."""
    n = m.nrows
    divisors = [Polynomial([1])]
    for k in range(1, n + 1):
        d = Polynomial()
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                minor = PolyMatrix([[m.entries[i][j] for j in cols] for i in rows])
                d = poly_gcd(d, polymat_det(minor))
        divisors.append(d)
    invariants = []
    for prev, cur in zip(divisors, divisors[1:]):
        q, r = polynomial_divmod(cur, prev)
        assert r.is_zero()
        invariants.append(q)
    return tuple(invariants)


def test_criterion_02_gcd_clause_as_stated():
    """Pruning a reciprocal leaf changes the non-structural tau-spectrum.

    At t = +-1/tau the downweighted Laplacian collapses to a Laplacian:
    M_tau(1/tau) = (D - S)/tau and M_tau(-1/tau) = (D + S)/tau.  Both are
    singular on the pruning example before and after pruning, so the last
    invariant polynomials share the structural factor t^2 - 1/tau^2.  The
    clause is that they share nothing else: the gcd is exactly that factor
    and the cofactors are coprime.  The invariants are checked against the
    determinantal divisors, and the pruned graph (a directed 3-cycle, where
    M_tau(t) = (1 - tau^2 t^2)(I - tA)) against its hand factorisation.
    """
    tau = F(1, 2)
    t = Polynomial([0, 1])
    structural = t * t - 1 / tau**2
    g = sec4_graph()
    pruned = prune_reciprocal_leaves(g)
    assert pruned.edges == directed_cycle(3).edges

    lasts = []
    for graph in (g, pruned):
        m = tau_dgl(graph, tau)
        bundle = laplacian_bundle(graph)
        lap, signless = bundle.laplacian, bundle.signless_laplacian
        assert m.eval_at(1 / tau) == lap.scale(1 / tau), graph.edges
        assert m.eval_at(-1 / tau) == signless.scale(1 / tau), graph.edges
        assert lap.rank() < graph.n and signless.rank() < graph.n, graph.edges
        invariants = smith_form(m).invariants
        assert _determinantal_invariants(m) == invariants, graph.edges
        lasts.append(invariants[-1])

    cycle = polymatrix_from_coefficients([Matrix.identity(3), -pruned.adjacency()])
    assert tau_dgl(pruned, tau) == cycle.scale(1 - (tau * t) ** 2)

    last, last_pruned = lasts
    assert poly_gcd(last, last_pruned) == structural
    assert poly_gcd(polynomial_divmod(last, structural)[0],
                    polynomial_divmod(last_pruned, structural)[0]) == Polynomial([1])
    _report(2, "last invariants share exactly t^2 - 1/tau^2; cofactors coprime")


def _criterion3_fixtures():
    return [
        example1(),
        directed_cycle(3),
        undirected_cycle(3),
        undirected_cycle(4),
        undirected_path(4),
        complete_undirected(4),
        bowtie(),
        sec4_graph(),
        six_vertex_two_component(),
        build_unweighted([(1, 2)]),
        build_unweighted([], vertices=[1, 2]),
    ]


def test_criterion_03_identity_suite_on_random_digraphs():
    """All determinant identities hold exactly on 200 random digraphs plus
    the fixture set."""
    taus = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    rng = random.Random(20250810)
    densities = (0.2, 0.5, 0.8)
    graphs = []
    for i in range(200):
        n = 3 + i % 6
        graphs.append(random_digraph(rng, n, densities[i % 3], weighted=i % 2 == 0))
    for i, g in enumerate(graphs):
        gu = unit_weight_version(g)
        assert verify_ihara_digraph(gu).equal, (i, gu.edges)
        for tau in taus:
            assert verify_tau_ihara(gu, tau).equal, (i, tau, gu.edges)
        assert verify_flanders(gu).equal, (i, gu.edges)
        assert verify_weighted_ihara(g).equal, (i, g.edges)
        for cert in verify_lemma_suite(gu, taus[i % 5]):
            assert cert.equal, (i, cert.identity, gu.edges)
    for g in _criterion3_fixtures():
        assert verify_ihara_digraph(g).equal
        for tau in taus:
            assert verify_tau_ihara(g, tau).equal
        assert verify_flanders(g).equal
        assert verify_weighted_ihara(g).equal
        assert all(c.equal for c in verify_lemma_suite(g, F(1, 2)))
    assert verify_weighted_ihara(weighted_3cycle()).equal
    assert verify_weighted_ihara(single_recip_edge(F(5, 2), F(3, 7))).equal
    _report(3, "identity certificates all equal on 200 random digraphs + fixtures")


def test_criterion_04_oracle_equivalence():
    """Three independent walk-counting routes agree entrywise."""
    graphs = []
    for n in (1, 2, 3, 4):
        graphs.extend(connected_undirected_graphs(n))
    graphs.extend(nonisomorphic_connected_undirected(5))
    graphs.extend(all_digraphs(3))
    rng = random.Random(424242)
    graphs.extend(
        random_digraph(rng, rng.randint(4, 5), rng.choice([0.3, 0.5, 0.8]))
        for _ in range(40)
    )
    for g in graphs:
        oracle = enumerate_nbtw(g, 8).tables
        rec = nbtw_recurrence(g, 8).tables
        edge = weighted_nbtw(g, 8).tables
        assert oracle == rec == edge, g.edges

    btdw_graphs = [
        undirected_path(3),
        undirected_path(5),
        undirected_cycle(3),
        undirected_cycle(5),
        complete_undirected(4),
        bowtie(),
        directed_cycle(3),
        directed_cycle(5),
        example1(),
        sec4_graph(),
        single_recip_edge(),
    ] + [random_digraph(rng, rng.randint(2, 5), 0.5) for _ in range(10)]
    for g in btdw_graphs:
        for omega in (F(0), F(1, 4), F(1, 2), F(1)):
            assert (
                btdw_recurrence(g, 7, omega).tables
                == enumerate_btdw(g, 7, omega).tables
            ), (g.edges, omega)
    _report(4, "oracle = recurrence = edge-power, and downweighted oracle agrees")


def test_criterion_05_radius_trichotomy():
    """Forest, single-cycle and multi-cycle radii with certified brackets."""
    forest = build_unweighted(
        [(1, 2), (2, 1), (2, 3), (3, 2), (4, 5), (5, 4)], vertices=[1, 2, 3, 4, 5, 6]
    )
    rep = radius_unweighted(forest)
    assert rep.case_label == "AllTrees" and rep.r.is_infinite()
    tables = nbtw_recurrence(forest, 2 * forest.n + 2).tables
    assert all(t.is_zero() for t in tables[2 * forest.n + 1 :])

    for g in [example1(), undirected_cycle(3), undirected_cycle(4), undirected_cycle(5)]:
        rep = radius_unweighted(g)
        assert rep.case_label == "SomeOneCycleNoneMore"
        assert rep.r == Bound.exact(1)

    for g in (bowtie(), complete_undirected(4)):
        rep = radius_unweighted(g)
        assert rep.case_label == "SomeMultiCycle"
        mu = rep.mu
        inv_rho = Bound.interval(1 / rep.rho.upper, 1 / rep.rho.lower)
        assert mu.overlaps(inv_rho)
        assert mu.width() + inv_rho.width() <= WIDTH_10
        assert mu.hi < 1
    _report(5, "radius trichotomy with bracket overlap below 1e-10")


def test_criterion_06_weighted_radius():
    """Exact reciprocal-spectral-radius law for weighted graphs."""
    rep = radius_weighted(weighted_3cycle())
    assert rep.r.lo**3 <= F(1, 30) <= rep.r.hi**3
    assert rep.r.width() <= WIDTH_10

    rng = random.Random(6060)
    tested = 0
    attempts = 0
    while tested < 20 and attempts < 200:
        attempts += 1
        g = random_digraph(rng, rng.randint(3, 6), rng.choice([0.5, 0.8]), weighted=True)
        rep = radius_weighted(g)
        if rep.rho.nilpotent:
            continue
        tested += 1
        tables = weighted_nbtw(g, 60).tables
        top = max(x for row in tables[60].data for x in row)
        assert top > 0, g.edges
        rate = float(top) ** (1.0 / 60)
        rho = float(rep.rho.upper)
        assert abs(rate - rho) <= 0.05 * rho, (g.edges, rate, rho)
    assert tested == 20

    for seed in (1, 2, 3):
        tree_rng = random.Random(seed)
        pool = [F(1, 2), F(2), F(5, 3), F(7, 4)]
        edges = []
        for v in range(2, 6):
            parent = tree_rng.randint(1, v - 1)
            w1, w2 = tree_rng.choice(pool), tree_rng.choice(pool)
            edges += [(parent, v, w1), (v, parent, w2)]
        rep = radius_weighted(build_graph(edges))
        assert rep.r.is_infinite() and rep.rho.nilpotent
    _report(6, "weighted radius bracket, growth-rate agreement, trees infinite")


def test_criterion_07_defectiveness_criterion():
    """Counting test against the Smith-form test on all strongly connected
    digraphs with at most 4 vertices, tau in {1/2, 1}."""
    checked = 0
    for n in (1, 2, 3, 4):
        for g in all_digraphs(n):
            if not is_strongly_connected(g):
                continue
            checked += 1
            for tau in (F(1, 2), F(1)):
                partials = smith_form(tau_dgl(g, tau)).partial_multiplicities(1 / tau)
                assert any(p >= 2 for p in partials) == is_one_defective(g, tau), (
                    g.edges,
                    tau,
                )
    assert checked > 100
    _report(7, f"defectiveness counting test matches Smith form on {checked} graphs")


def test_criterion_08_non_k_cycling_radius():
    """Strict lower Collatz-Wielandt bound above one."""
    pr2 = perron_radius(non_k_cycling(bowtie(), 2).matrix)
    assert pr2.lower > 1
    pr3 = perron_radius(non_k_cycling(two_squares(), 3).matrix)
    assert pr3.lower > 1
    _report(8, "non-k-cycling lower bounds strictly above 1 (k=2 and k=3)")


def test_criterion_09_leaf_pruning():
    """Pruning reciprocal leaves preserves the determinant and the geometric
    multiplicity at one, on 50 random graphs with random leaves attached."""
    rng = random.Random(909)
    for _ in range(50):
        base = unit_weight_version(
            random_digraph(rng, rng.randint(2, 5), rng.choice([0.4, 0.6, 0.8]))
        )
        g = base
        for _ in range(rng.randint(1, 2)):
            g = with_random_reciprocal_leaf(rng, g)
        pruned = prune_reciprocal_leaves(g)
        m_g = directed_dgl(g)
        m_p = directed_dgl(pruned)
        assert polymat_det(m_g) == polymat_det(m_p)
        assert (
            eigen_report(m_g, 1).geometric == eigen_report(m_p, 1).geometric
        )
    _report(9, "determinant and geometric multiplicity at 1 preserved, 50 graphs")


def test_criterion_10_multiplicity_propositions():
    """Geometric multiplicities of +-1 count components of the undirected
    part, exhaustively on <= 4 vertices; Index Sum holds on every Laplacian
    this suite builds."""
    for n in (1, 2, 3, 4):
        for g in all_digraphs(n):
            m = directed_dgl(g)
            gu = undirected_part(g)
            comp = len(connected_components_undirected(gu))
            assert g.n - m.eval_at(1).rank() == comp, g.edges
            bip = bipartite_component_count(gu)
            assert g.n - m.eval_at(-1).rank() == bip, g.edges

    for g in all_digraphs(3):
        assert_index_sum(directed_dgl(g))
        assert_index_sum(tau_dgl(g, F(1, 2)))
    rng = random.Random(1010)
    extras = [
        example1(),
        bowtie(),
        complete_undirected(4),
        undirected_cycle(4),
        undirected_path(4),
        sec4_graph(),
        six_vertex_two_component(),
    ] + [unit_weight_version(random_digraph(rng, rng.randint(4, 5), 0.5)) for _ in range(30)]
    for g in extras:
        assert_index_sum(directed_dgl(g))
        assert_index_sum(tau_dgl(g, F(1, 2)))
    _report(10, "multiplicity counts exhaustive on <= 4 vertices; Index Sum holds")
