import itertools
import random
from fractions import Fraction as F
from math import gcd, isqrt

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

from nbwalks import (
    Matrix,
    PolyMatrix,
    Polynomial,
    build_unweighted,
    directed_dgl,
    polymat_det,
    real_roots,
    reversal,
    root_multiplicity,
    smith_form,
    tau_dgl,
)
from nbwalks.errors import NotSquareError, ZeroPolynomialError
from nbwalks import polys as polys_mod
from nbwalks.exact import _POINT_GROUP, _batched_dets, _clear_denominators
from nbwalks.polys import (
    RootRecord,
    _kronecker_det,
    _sign_at,
    poly_gcd,
    simplest_rational_in,
    squarefree_decomposition,
    sturm_chain,
)
from nbwalks.zpoly import _zpseudo_divmod

from helpers import (
    assert_index_sum,
    bowtie,
    complete_undirected,
    full_chain_real_roots,
    mirror,
    parent_polymat_det_bareiss,
    polymatrix_from_coefficients,
    polynomial_divmod,
    q_poly_gcd,
    q_squarefree_decomposition,
    random_connected_graph,
    undirected_cycle,
    undirected_path,
)

X = Polynomial([0, 1])


def poly(*ascending):
    return Polynomial(ascending)


class TestPolynomialBasics:
    def test_arith(self):
        p = poly(1, 2) * poly(-1, 1)  # (1+2t)(t-1) = -1 - t + 2t^2
        assert p == poly(-1, -1, 2)
        q, r = polynomial_divmod(p, poly(-1, 1))
        assert q == poly(1, 2) and r.is_zero()

    def test_zero_degree_sentinel(self):
        assert Polynomial().degree == -1
        assert poly(3).degree == 0

    def test_eval_and_derivative(self):
        p = poly(1, 0, -3, 2)
        assert p(F(1, 2)) == 1 - F(3, 4) + F(1, 4)
        assert p.derivative() == poly(0, -6, 6)

    def test_gcd_monic(self):
        a = poly(-1, 1) ** 2 * poly(2, 1)
        b = poly(-1, 1) * poly(5, 3)
        assert poly_gcd(a, b) == poly(-1, 1)

    def test_squarefree_decomposition(self):
        p = poly(-1, 1) ** 3 * poly(1, 1) * F(7)
        parts = squarefree_decomposition(p)
        assert (poly(1, 1), 1) in parts and (poly(-1, 1), 3) in parts

    def test_root_multiplicity(self):
        p = poly(-1, 1) ** 2 * poly(-1, 0, 0, 2)
        assert root_multiplicity(p, 1) == 2
        assert root_multiplicity(p, 2) == 0


def _sparse_pattern(rng, n, kind):
    """The columns row i may hold, for an arrow (a hub row and column, else
    the diagonal), 2x2 blocks ("pairs") or a random sparse pattern: most
    rows have no entry in the pivot column for many steps."""
    if kind == "arrow":
        hub = rng.randrange(n)
        return [{i, hub} if i != hub else set(range(n)) for i in range(n)]
    if kind == "pairs":
        perm = rng.sample(range(n), n)
        mate = dict(zip(perm[::2], perm[1::2]))
        mate.update({b: a for a, b in mate.items()})
        return [{i, mate.get(i, i)} for i in range(n)]
    return [{i} | {j for j in range(n) if rng.random() < 0.3} for i in range(n)]


class TestPolymatDet:
    def test_diagonal_example(self):
        m = PolyMatrix(
            [
                [poly(1), poly(0), poly(0)],
                [poly(0), poly(0, 1), poly(0)],
                [poly(0), poly(0), poly(0, 1, -2, 1)],
            ]
        )
        assert polymat_det(m) == poly(0, 0, 1, -2, 1)

    def test_identity(self):
        assert polymat_det(polymatrix_from_coefficients([Matrix.identity(3)])) == poly(1)

    def test_triangle_laplacian_det_vs_sampling(self):
        m = directed_dgl(undirected_cycle(3))
        det = polymat_det(m)
        for k in range(10):
            t = F(k + 1, 7)
            assert det(t) == m.eval_at(t).det()

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            polymat_det(PolyMatrix([[poly(1), poly(2)]]))

    def test_agrees_with_charpoly_route(self):
        # Kronecker substitution against Berkowitz's characteristic
        # polynomial, two fully independent algorithms
        rng = random.Random(71)
        for _ in range(15):
            n = rng.randint(1, 5)
            x = Matrix(
                [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            )
            eye = Matrix.identity(n)
            pm = polymatrix_from_coefficients([eye, -x], grade=1)
            assert polymat_det(pm) == x.det_one_minus_t()

    def test_singular_matrix(self):
        m = PolyMatrix([[poly(0, 1), poly(0, 1)], [poly(0, 1), poly(0, 1)]])
        assert polymat_det(m).is_zero()

    def test_elimination_matches_sympy(self):
        # the Kronecker route alone, before polymat_det's sample check,
        # on rational entries with mixed denominators, zeros and row swaps
        t = sympy.Symbol("t")
        rng = random.Random(29)
        for trial in range(25):
            n = rng.randint(1, 5)
            entries = [
                [
                    poly(*(F(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6)))
                           for _ in range(rng.randint(1, 3))))
                    if rng.random() < 0.6 else poly()
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            m = PolyMatrix(entries)
            want = sympy.Matrix(
                n, n, [sum(sympy.Rational(c.numerator, c.denominator) * t**k
                           for k, c in enumerate(e.coeffs)) for row in entries for e in row]
            ).det(method="berkowitz")
            got = Polynomial([F(c, m.den**n) for c in _kronecker_det(m.ints)])
            assert sympy.expand(want - sum(
                sympy.Rational(c.numerator, c.denominator) * t**k
                for k, c in enumerate(got.coeffs))) == 0, trial
            assert polymat_det(m) == got

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(("arrow", "pairs", "random")))
    def test_lazy_rows_match_sympy(self, seed, kind):
        # rows and columns permuted, so that pivots need row swaps
        t = sympy.Symbol("t")
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        pattern = _sparse_pattern(rng, n, kind)
        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        entries = [[poly(*(rng.randint(-4, 4) for _ in range(rng.randint(1, 3))))
                    if cols[j] in pattern[rows[i]] else poly() for j in range(n)]
                   for i in range(n)]
        m = PolyMatrix(entries)
        ring = sympy.ZZ[t]
        x = ring.gens[0]

        def element(coeffs):
            return sum((int(c) * x**k for k, c in enumerate(coeffs)), ring.zero)

        want = DomainMatrix([[element(e.coeffs) for e in row] for row in entries],
                            (n, n), ring).det()
        got = _kronecker_det(m.ints)
        assert want == element(got)
        assert polymat_det(m) == Polynomial(got, m.den**n)

    def test_tau_laplacian_matches_sympy(self):
        t = sympy.Symbol("t")
        m = tau_dgl(bowtie(), F(1, 3))
        want = sympy.Poly(sympy.Matrix(
            m.nrows, m.ncols, [sum(sympy.Rational(c.numerator, c.denominator) * t**k
                                   for k, c in enumerate(e.coeffs))
                               for row in m.entries for e in row]
        ).det(method="berkowitz"), t)
        got = polymat_det(m)
        assert [F(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())] == list(got.coeffs)


def _zz_t_det(entries):
    """The determinant of integer Polynomial entries by sympy's ZZ[t]."""
    ring = sympy.ZZ[sympy.Symbol("t")]
    x = ring.gens[0]

    def element(e):
        return sum((int(c) * x**k for k, c in enumerate(e.coeffs)), ring.zero)

    n = len(entries)
    det = DomainMatrix([[element(e) for e in row] for row in entries], (n, n), ring).det()
    return [int(det.coeff(x**k)) for k in range(det.degree() + 1)] if det else []


class TestKroneckerDet:
    """`_kronecker_det`, one integer elimination at t = 2**w decoded in
    signed base-2**w digits, against the Z[t] elimination it replaced and
    sympy's ZZ[t] determinant."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(("arrow", "pairs", "random")),
           st.sampled_from((2, 16, 64, 200)))
    def test_matches_parent_and_sympy(self, seed, kind, bits):
        # coefficients up to +-2**bits, some leading coefficients negative;
        # rows and columns permuted, so that pivots need row swaps
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        pattern = _sparse_pattern(rng, n, kind)

        def entry():
            coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(0, 3))]
            return poly(*coeffs, -rng.randint(1, 2**bits) if rng.random() < 0.5 else
                        rng.randint(1, 2**bits))

        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        entries = [[entry() if cols[j] in pattern[rows[i]] else poly() for j in range(n)]
                   for i in range(n)]
        m = PolyMatrix(entries)
        got = _kronecker_det(m.ints)
        assert got == list(parent_polymat_det_bareiss(m.ints)) == _zz_t_det(entries)
        assert polymat_det(m) == Polynomial(got, m.den**n)

    @pytest.mark.parametrize("diagonal", [(1,), (-1,), (3, -5, 7), (-(2**64), 2**64 - 1, -1),
                                          (2**200, -(2**200), 3, -3)])
    def test_constant_diagonal_meets_the_bound(self, diagonal):
        # |det| = sqrt(H2) exactly, the largest coefficient the width allows
        n = len(diagonal)
        rows = [[(c,) if i == j else () for j in range(n)] for i, c in enumerate(diagonal)]
        h2 = 1
        for c in diagonal:
            h2 *= c * c
        want = 1
        for c in diagonal:
            want *= c
        assert isqrt(h2) ** 2 == h2 and abs(want) == isqrt(h2)
        assert _kronecker_det(rows) == [want]
        assert polymat_det(PolyMatrix(rows, 0, 1)) == Polynomial([want])

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 63, 64, 200])
    def test_one_by_one_negative_power_of_two(self, k):
        # -2**k meets the bound exactly, and the low bits of its digit are
        # all 0, so only the sign test makes the digit negative
        assert _kronecker_det([[(-(2**k),)]]) == [-(2**k)]
        assert polymat_det(PolyMatrix([[(-(2**k),)]], 0, 1)) == Polynomial([-(2**k)])

    def test_singular(self):
        row = [(1, -2**70, 3), (), (-5,)]
        equal_rows = [row, [(2,), (0, 1), ()], row]
        zero_row = [[(1, 1), (2,), ()], [(), (), ()], [(3,), (0, 4), (5, 0, 6)]]
        for rows in (equal_rows, zero_row, [[()]]):
            assert _kronecker_det(rows) == []
            assert polymat_det(PolyMatrix(rows, None, 1)).is_zero()


class TestSmithForm:
    def test_already_diagonal(self):
        m = PolyMatrix(
            [
                [poly(1), poly(0)],
                [poly(0), poly(0, 0, 1)],
            ]
        )
        sf = smith_form(m)
        assert sf.invariants == (poly(1), poly(0, 0, 1))

    def test_k3_golden(self):
        a = complete_undirected(3).adjacency()
        m = polymatrix_from_coefficients(
            [Matrix.identity(3), -a, Matrix.identity(3)], grade=2
        )
        sf = smith_form(m)
        e2 = poly(1, 1, 1)
        assert sf.invariants == (poly(1), e2, e2 * poly(-1, 1) ** 2)

    def test_divisibility_and_det_product(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 4)
            entries = [
                [
                    Polynomial([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            m = PolyMatrix(entries)
            det = polymat_det(m)
            sf = smith_form(m)
            for s, t in zip(sf.invariants, sf.invariants[1:]):
                assert s.divides(t)
            if not det.is_zero():
                prod = poly(1)
                for s in sf.invariants:
                    prod = prod * s
                ratio_num, ratio_rem = polynomial_divmod(det, prod)
                assert ratio_rem.is_zero() and ratio_num.degree == 0

    def test_index_sum_on_laplacians(self):
        for g in (undirected_cycle(4), bowtie(), complete_undirected(4)):
            assert_index_sum(directed_dgl(g))

    def test_rectangular(self):
        m = PolyMatrix(
            [
                [poly(0, 1), poly(0, 0, 1), poly(0)],
                [poly(0, 1), poly(0, 1), poly(0, 1)],
            ]
        )
        sf = smith_form(m)
        assert sf.rank == 2
        for s, t in zip(sf.invariants, sf.invariants[1:]):
            assert s.divides(t)

    def test_rank_deficient(self):
        row = [poly(0, 1), poly(0, 2)]
        sf = smith_form(PolyMatrix([row, [2 * p for p in row]]))
        assert sf.rank == 1
        assert sf.invariants == (poly(0, 1),)

    def test_invariant_under_unimodular_scrambling(self):
        rng = random.Random(83)
        targets = [
            (poly(1), poly(0, 1), poly(0, 1) * poly(-1, 1)),
            (poly(1), poly(1, 1), poly(1, 1) ** 2 * poly(-2, 1)),
            (poly(0, 0, 1), poly(0, 0, 1) * poly(3, 1)),
        ]
        for diag in targets:
            n = len(diag)
            entries = [
                [diag[i] if i == j else poly(0) for j in range(n)] for i in range(n)
            ]
            # random elementary row/column operations keep the Smith form
            for _ in range(12):
                i, j = rng.sample(range(n), 2)
                mult = Polynomial([rng.randint(-2, 2), rng.randint(-1, 1)])
                if rng.random() < 0.5:
                    entries[i] = [a + mult * b for a, b in zip(entries[i], entries[j])]
                else:
                    for row in entries:
                        row[i] = row[i] + mult * row[j]
            sf = smith_form(PolyMatrix(entries))
            assert sf.invariants == tuple(p.monic() for p in diag)


# ---- the Fraction-elimination Smith form, as reference ----------------------


def _ref_smith_invariants(m):
    """Invariants of the Smith form by elimination over Q[t] on Polynomial
    entries: the same pivot rule, row-then-column clearing and offender-row
    step as smith_form, with exact division by the pivot."""
    a = [list(row) for row in m.entries]
    nr, nc = m.nrows, m.ncols
    d = 0
    while d < min(nr, nc):
        while True:
            piv = None
            best = None
            for i in range(d, nr):
                for j in range(d, nc):
                    e = a[i][j]
                    if not e.is_zero() and (best is None or e.degree < best):
                        best = e.degree
                        piv = (i, j)
            if piv is None:
                break
            pi, pj = piv
            if pi != d:
                a[d], a[pi] = a[pi], a[d]
            if pj != d:
                for row in a:
                    row[d], row[pj] = row[pj], row[d]
            pivot = a[d][d]
            dirty = False
            for i in range(d + 1, nr):
                if not a[i][d].is_zero():
                    q = polynomial_divmod(a[i][d], pivot)[0]
                    if not q.is_zero():
                        a[i] = [x - q * y for x, y in zip(a[i], a[d])]
                    if not a[i][d].is_zero():
                        dirty = True
            if dirty:
                continue
            for j in range(d + 1, nc):
                if not a[d][j].is_zero():
                    q = polynomial_divmod(a[d][j], pivot)[0]
                    if not q.is_zero():
                        for row in a:
                            row[j] = row[j] - q * row[d]
                    if not a[d][j].is_zero():
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(d + 1, nr):
                for j in range(d + 1, nc):
                    if not polynomial_divmod(a[i][j], pivot)[1].is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[d] = [x + y for x, y in zip(a[d], a[offender])]
        if a[d][d].is_zero():
            break
        d += 1
    return tuple(a[i][i].monic() for i in range(d))


def _sympy_smith_invariants(m):
    """Invariants as quotients of determinantal divisors: D_k is the monic
    gcd of all k x k minors, and the k-th invariant is D_k / D_(k-1)."""
    t = sympy.Symbol("t")
    sm = sympy.Matrix(m.nrows, m.ncols, [
        sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in enumerate(e.coeffs))
        for row in m.entries for e in row
    ])
    out, prev = [], sympy.Poly(1, t, domain="QQ")
    for k in range(1, min(m.nrows, m.ncols) + 1):
        dk = sympy.Poly(0, t, domain="QQ")
        for rows in itertools.combinations(range(m.nrows), k):
            for cols in itertools.combinations(range(m.ncols), k):
                minor = sympy.Poly(sm.extract(list(rows), list(cols)).det(method="berkowitz"),
                                   t, domain="QQ")
                dk = sympy.gcd(dk, minor)
        if dk.is_zero:
            break
        dk = dk.monic()
        quot, rem = sympy.div(dk, prev)
        assert rem.is_zero
        out.append(Polynomial([F(int(c.numerator), int(c.denominator))
                               for c in reversed(quot.all_coeffs())]))
        prev = dk
    return tuple(out)


def _random_poly_matrix(rng, nr, nc, max_len=3):
    """Rational entries with mixed denominators and both signs, some zero
    entries, and now and then a zero row, a zero column or a row that is a
    polynomial combination of two others (rank deficiency)."""
    def entry():
        if rng.random() < 0.3:
            return poly()
        return poly(*(F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4, 6)))
                      for _ in range(rng.randint(1, max_len))))
    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    shape = rng.random()
    if shape < 0.15:
        rows[rng.randrange(nr)] = [poly() for _ in range(nc)]
    elif shape < 0.3:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = poly()
    elif shape < 0.5 and nr >= 3:
        i, k, l = rng.sample(range(nr), 3)
        f, g = entry(), entry()
        rows[i] = [f * x + g * y for x, y in zip(rows[k], rows[l])]
    return PolyMatrix(rows)


def _product(polys):
    out = poly(1)
    for p in polys:
        out = out * p
    return out


class TestSmithOracles:
    def test_pseudo_division_identity(self):
        rng = random.Random(3)
        for _ in range(300):
            b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
            b[-1] = b[-1] or rng.choice((-6, -1, 1, 4))
            a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
            while a and not a[-1]:
                a.pop()
            s, q, r = _zpseudo_divmod(a, b)
            assert s > 0 and len(r) < len(b) and (not r or r[-1])
            lhs = Polynomial(a) * s
            assert lhs == Polynomial(q) * Polynomial(b) + Polynomial(r)
            assert (abs(b[-1]) ** max(len(a) - len(b) + 1, 0)) % s == 0
            if abs(b[-1]) == 1:
                assert s == 1

    def test_matches_fraction_reference_on_random_matrices(self):
        rng = random.Random(41)
        for trial in range(120):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            if trial % 3 == 0:
                nc = nr
            m = _random_poly_matrix(rng, nr, nc)
            assert smith_form(m).invariants == _ref_smith_invariants(m), trial

    def test_matches_fraction_reference_on_laplacians(self):
        rng = random.Random(7)
        for n in range(5, 13):
            for oneway in (0.0, 0.3):
                g = random_connected_graph(rng, n, max(1, n // 3), oneway)
                for m in (directed_dgl(g), tau_dgl(g, F(1, 2))):
                    assert smith_form(m).invariants == _ref_smith_invariants(m), (n, oneway)

    def test_matches_determinantal_divisors(self):
        rng = random.Random(13)
        for trial in range(30):
            m = _random_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), max_len=2)
            assert smith_form(m).invariants == _sympy_smith_invariants(m), trial
        m = directed_dgl(undirected_cycle(3))
        assert smith_form(m).invariants == _sympy_smith_invariants(m)

    def test_constant_pivots_match_determinantal_divisors(self):
        # trees and one-cycle graphs at tau = 1, where most pivots are
        # constants and their steps end after the row pass
        graphs = [
            undirected_path(5),
            build_unweighted(mirror([(0, 1), (0, 2), (0, 3), (3, 4)])),
            build_unweighted([(0, 1), (1, 0), (1, 2), (3, 1), (2, 4), (4, 2)]),
            undirected_cycle(4),
            build_unweighted(mirror([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])),
            build_unweighted([(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 3)]),
        ]
        for g in graphs:
            m = directed_dgl(g)
            assert smith_form(m).invariants == _sympy_smith_invariants(m), g.edges

    def test_invariant_product_is_monic_determinant(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(100):
            n = rng.randint(1, 5)
            m = _random_poly_matrix(rng, n, n)
            det = polymat_det(m)
            if det.is_zero():
                continue
            checked += 1
            assert _product(smith_form(m).invariants) == det.monic()
        assert checked > 30

    def test_twenty_vertex_multi_cycle_laplacian(self):
        # 54 edges (108 arcs); the Fraction elimination took minutes here
        g = random_connected_graph(random.Random(20), 20, 35)
        assert g.m == 108
        m = directed_dgl(g)
        sf = smith_form(m)
        assert sf.rank == 20
        assert _product(sf.invariants) == polymat_det(m).monic()


class TestPolyMatrixShapes:
    def test_sum_needs_equal_shapes(self):
        a = PolyMatrix([[poly(1), poly(0, 1)]])
        for b in (PolyMatrix([[poly(1)]]), PolyMatrix([[poly(1)], [poly(2)]])):
            with pytest.raises(ValueError, match="dimension mismatch"):
                a + b
            with pytest.raises(ValueError, match="dimension mismatch"):
                b + a
        assert (a + a).entries == ((poly(2), poly(0, 2)),)


_RATIONALS = st.fractions(-5, 5, max_denominator=6)
_POLYS = st.lists(_RATIONALS, max_size=4).map(Polynomial)


@st.composite
def _poly_matrix_pairs(draw):
    """Two polynomial matrices of one shape, rational coefficients with
    mixed denominators, zero entries and the zero matrix among them."""
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return tuple(PolyMatrix(draw(st.lists(st.lists(_POLYS, min_size=nc, max_size=nc),
                                          min_size=nr, max_size=nr)),
                            grade=draw(st.integers(3, 5)))
                 for _ in range(2))


class TestPolyMatrixLayout:
    """The integer coefficient rows against the same operations entry by
    entry on the Polynomial view."""

    @settings(max_examples=150, deadline=None)
    @given(pair=_poly_matrix_pairs(), p=_POLYS, t=_RATIONALS)
    def test_operations_match_entrywise(self, pair, p, t):
        a, b = pair
        for m in (a, b):
            assert m.den > 0 and gcd(m.den, *(c for row in m.ints for e in row for c in e)) == 1
            assert all(not e or e[-1] for row in m.ints for e in row)
            assert PolyMatrix(m.ints, m.grade, m.den) == m
            assert PolyMatrix([[[3 * c for c in e] for e in row] for row in m.ints],
                              m.grade, 3 * m.den) == m
        total = a + b
        assert total.entries == tuple(tuple(x + y for x, y in zip(ra, rb))
                                      for ra, rb in zip(a.entries, b.entries))
        assert total.grade == max(a.grade, b.grade)
        scaled = a.scale(p)
        assert scaled.entries == tuple(tuple(p * e for e in row) for row in a.entries)
        assert scaled.grade == a.grade + max(p.degree, 0)
        rev = reversal(a)
        assert rev.entries == tuple(tuple(e.reversal(a.grade) for e in row)
                                    for row in a.entries)
        assert a.eval_at(t) == Matrix([[e(t) for e in row] for row in a.entries])
        for k in range(a.grade + 2):
            assert a.coefficient(k) == Matrix(
                [[e.coeffs[k] if k <= e.degree else 0 for e in row] for row in a.entries])


class TestPolyMatrixScale:
    def test_grade_grows_by_the_degree(self):
        m = PolyMatrix([[1]], grade=2)
        assert m.scale(3).grade == 2
        assert m.scale(F(1, 3)) == PolyMatrix([[F(1, 3)]], grade=2)
        assert m.scale(X) == PolyMatrix([[X]], grade=3)
        assert m.scale(X * X + 1).grade == 4
        assert m.scale(0) == PolyMatrix([[0]], grade=2)

    def test_reversal_of_a_scaled_matrix(self):
        # t at the declared grade 3: t**3 * (1/t) = t**2
        m = PolyMatrix([[1]], grade=2).scale(X)
        assert reversal(m).entries[0][0] == poly(0, 0, 1)


class TestReversal:
    def test_scalar(self):
        m = PolyMatrix([[poly(-1, 0, 1)]], grade=2)
        assert reversal(m).entries[0][0] == poly(1, 0, -1)

    def test_laplacian_coefficients_swap(self):
        g = bowtie()
        m = directed_dgl(g)
        rev = reversal(m)
        assert rev.coefficient(0) == m.coefficient(m.grade)
        assert rev.coefficient(m.grade) == m.coefficient(0)

    def test_zero_matrix(self):
        m = PolyMatrix([[poly(0)]], grade=2)
        assert reversal(m).entries[0][0].is_zero()

    def test_grade_is_part_of_equality(self):
        # equal entries, different grades: the reversals differ, so the
        # matrices must too
        low, high = PolyMatrix([[poly(1)]], grade=0), PolyMatrix([[poly(1)]], grade=2)
        assert reversal(low).entries != reversal(high).entries
        assert low != high and len({low, high}) == 2
        assert low == PolyMatrix([[1]]) and hash(low) == hash(PolyMatrix([[1]]))


class TestRealRoots:
    def test_unit_roots(self):
        roots = real_roots(poly(-1, 0, 1), 0, 2)
        assert len(roots) == 1
        assert roots[0].value == 1 and roots[0].multiplicity == 1

    def test_multiplicities(self):
        p = poly(-1, 1) ** 2 * poly(-1, 2)
        roots = real_roots(p, 0, 2)
        assert [(r.value, r.multiplicity) for r in roots] == [
            (F(1, 2), 1),
            (F(1), 2),
        ]

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomialError):
            real_roots(Polynomial(), 0, 1)

    def test_exclusive_upper_end(self):
        p = poly(-1, 1) * poly(-1, 2)
        inclusive = real_roots(p, 0, 1)
        exclusive = real_roots(p, 0, 1, include_hi=False)
        assert len(inclusive) == 2 and len(exclusive) == 1

    def test_bowtie_determinant_root(self):
        det = polymat_det(directed_dgl(bowtie()))
        roots = real_roots(det, 0, 1, include_hi=False)
        assert len(roots) == 1
        rec = roots[0]
        assert rec.hi - rec.lo <= F(1, 10**12)
        # numeric companion cross-check
        coeffs = [float(c) for c in det.coeffs]
        numeric = np.roots(list(reversed(coeffs)))
        real_in_01 = [
            z.real
            for z in numeric
            if abs(z.imag) < 1e-9 and 1e-9 < z.real < 1 - 1e-9
        ]
        assert len(real_in_01) == 1
        assert abs(real_in_01[0] - float(rec.midpoint())) < 1e-8

    def test_total_count_matches_companion(self):
        rng = random.Random(17)
        for _ in range(20):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(2, 7))]
            p = Polynomial(coeffs)
            if p.degree < 1:
                continue
            sq = squarefree_decomposition(p)
            if any(mult > 1 for _, mult in sq):
                continue  # companion comparison is only clean for simple roots
            bound = 1 + max(abs(c) for c in p.coeffs) / abs(p.leading)
            found = sum(
                r.multiplicity for r in real_roots(p, -bound - 1, bound + 1)
            )
            numeric = np.roots(list(reversed([float(c) for c in p.coeffs])))
            expected = sum(1 for z in numeric if abs(z.imag) < 1e-7)
            assert found == expected

    def test_simplest_rational(self):
        assert simplest_rational_in(F(9999, 10000), F(10001, 10000)) == 1
        assert simplest_rational_in(F(3, 10), F(2, 5)) == F(1, 3)
        assert simplest_rational_in(F(-1, 2), F(1, 2)) == 0
        assert simplest_rational_in(F(-7, 2), F(-10, 3)) == F(-17, 5)


# ---- the Fraction-evaluated Sturm isolation, as reference -------------------


def _primitive_int(p):
    """Scale by a positive rational so coefficients are coprime integers."""
    if p.is_zero():
        return p
    ints, _ = _clear_denominators(p.coeffs)
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return Polynomial(ints)


def _ref_chain(p):
    chain = [_primitive_int(p), _primitive_int(p.derivative())]
    while not chain[-1].is_zero():
        rem = polynomial_divmod(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(_primitive_int(-rem))
    return [q for q in chain if not q.is_zero()]


def _ref_var(chain, x):
    signs = [1 if v > 0 else -1 for v in (q(x) for q in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_refine(p, chain, a, b, width):
    va = _ref_var(chain, a)
    while b - a > width:
        mid = (a + b) / 2
        if p(mid) == 0:
            return RootRecord(mid, mid, 1, mid)
        vm = _ref_var(chain, mid)
        if va - vm >= 1:
            b = mid
        else:
            a, va = mid, vm
    if a < b:
        cand = simplest_rational_in(a, b)
        if p(cand) == 0:
            return RootRecord(cand, cand, 1, cand)
    return RootRecord(a, b, 1, None)


def _ref_isolate(p, lo, hi, width):
    chain = _ref_chain(p)
    out = []
    if p(hi) == 0:
        out.append(RootRecord(hi, hi, 1, hi))
    stack = [(lo, hi, _ref_var(chain, lo), _ref_var(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        count = va - vb
        if p(b) == 0:
            count -= 1
        if count <= 0:
            continue
        if count == 1:
            out.append(_ref_refine(p, chain, a, b, width))
            continue
        mid = (a + b) / 2
        if p(mid) == 0:
            out.append(RootRecord(mid, mid, 1, mid))
        vm = _ref_var(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    return out


def _ref_real_roots(p, lo, hi, width=F(1, 10**12), include_hi=True):
    lo, hi = F(lo), F(hi)
    records = [
        RootRecord(rec.lo, rec.hi, mult, rec.value)
        for factor, mult in squarefree_decomposition(p)
        for rec in _ref_isolate(factor, lo, hi, width)
    ]
    if not include_hi:
        records = [r for r in records if not (r.value is not None and r.value == hi)]
    records.sort(key=lambda r: r.midpoint())
    return records


class TestIntegerSturm:
    def test_sign_at_matches_fraction_evaluation(self):
        rng = random.Random(5)
        for _ in range(300):
            ints = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 9)))
            x = F(rng.randint(-50, 50), rng.randint(1, 2**rng.randint(0, 40)))
            v = Polynomial(ints)(x)
            assert _sign_at(ints, x) == (v > 0) - (v < 0)

    def test_sign_at_exact_roots(self):
        p = poly(-1, 3) * poly(2, 5) * poly(0, 1)  # roots 1/3, -2/5, 0
        ints = tuple(c.numerator for c in p.coeffs)
        for r in (F(1, 3), F(-2, 5), F(0)):
            assert _sign_at(ints, r) == 0

    def test_chain_is_primitive_integers(self):
        chain = sturm_chain(poly(F(1, 2), F(-3, 4), 0, F(5, 6)))
        assert all(type(c) is int for q in chain for c in q)
        assert chain[0] == (6, -9, 0, 10)

    def test_chain_matches_fraction_reference(self):
        # the pseudo-remainder chain against the primitive Fraction remainders
        rng = random.Random(41)
        factors = 0
        for _ in range(300):
            p = poly(rng.randint(-5, 5) or 1, rng.randint(1, 5))
            for _ in range(rng.randint(1, 4)):
                p = p * poly(*(F(rng.randint(-6, 6), rng.randint(1, 4))
                               for _ in range(rng.randint(2, 4)))) ** rng.randint(1, 2)
            if p.is_zero():
                continue
            for factor, _ in squarefree_decomposition(p):
                want = [tuple(c.numerator for c in q.coeffs) for q in _ref_chain(factor)]
                assert sturm_chain(factor) == want
                factors += 1
        assert factors > 300

    def test_real_roots_match_fraction_reference(self):
        # same isolating intervals, exact values and multiplicities, in order
        rng = random.Random(23)
        cases = [
            (polymat_det(directed_dgl(g)), 0, 1, False)
            for g in (bowtie(), complete_undirected(4), undirected_cycle(5))
            if polymat_det(directed_dgl(g)).degree > 0
        ]
        for _ in range(40):
            p = poly(rng.randint(-5, 5), rng.randint(1, 5))
            for _ in range(rng.randint(1, 5)):
                p = p * poly(*(F(rng.randint(-6, 6), rng.randint(1, 4))
                               for _ in range(rng.randint(2, 4))))
            if p.is_zero() or p.degree < 1:
                continue
            lo = F(rng.randint(-8, 0), rng.randint(1, 3))
            cases.append((p, lo, lo + rng.randint(1, 8), rng.random() < 0.5))
        assert len(cases) > 30
        for p, lo, hi, include_hi in cases:
            width = F(1, 10**6)
            assert real_roots(p, lo, hi, width, include_hi) == _ref_real_roots(
                p, lo, hi, width, include_hi
            )
            assert real_roots(p, lo, hi, include_hi=include_hi) == _ref_real_roots(
                p, lo, hi, include_hi=include_hi
            )


def _fraction_cross_check(m, det, visit):
    """The cross-check before the integer route: det(t) against the Bareiss
    determinant of m evaluated at t over Fractions, at t = 0, 1, -1, 2, -2,
    ..., degree bound + 1 points; ``visit(t, m(t))`` sees each point."""
    bound = sum(max((e.degree for e in row), default=0) for row in m.entries)
    bound = max(bound, 0)
    t = 0
    checked = 0
    while checked <= bound:
        point = F(t)
        at = m.eval_at(point)
        visit(point, at)
        if det(point) != at.det():
            raise RuntimeError("determinant cross-check failed")
        checked += 1
        t = -t if t > 0 else -t + 1


class TestPolymatDetCrossCheck:
    def matrices(self):
        rng = random.Random(4242)
        for _ in range(30):
            n = rng.randint(1, 5)
            yield _random_poly_matrix(rng, n, n)
        for g in (bowtie(), undirected_cycle(4), random_connected_graph(rng, 6, 3, 0.5)):
            yield directed_dgl(g)
            yield tau_dgl(g, F(1, 3))
        # degree bound 40: its 41 points take two groups
        yield tau_dgl(undirected_cycle(20), F(1, 2))

    @staticmethod
    def spread(rows, count):
        """The integer matrices that `_batched_dets` rows stand for."""
        return [[[0 if e is None else e[k] for e in row] for row in rows] for k in range(count)]

    def test_same_points_as_fraction_check(self, monkeypatch):
        seen, orders, counts = [], [], []
        elimination_plan = polys_mod._elimination_plan

        def plan_spy(n, nonzeros):
            order = elimination_plan(n, nonzeros)
            orders.append(order)
            return order

        def spy(rows, count):
            seen.extend(self.spread(rows, count))
            counts.append(count)
            # an entry outside the pattern of m is None
            order = orders[0]
            assert [[e is None for e in row] for row in rows] == [
                [not m.ints[i][j] for j in order] for i in order]
            return _batched_dets(rows, count)

        monkeypatch.setattr(polys_mod, "_elimination_plan", plan_spy)
        monkeypatch.setattr(polys_mod, "_batched_dets", spy)
        groups = set()
        for m in self.matrices():
            seen.clear()
            orders.clear()
            counts.clear()
            det = polymat_det(m)
            want = []
            _fraction_cross_check(m, det, lambda t, at: want.append(at))
            assert len(seen) == len(want) > 0
            assert counts == [min(_POINT_GROUP, len(want) - lo)
                              for lo in range(0, len(want), _POINT_GROUP)]
            groups.add(len(counts))
            assert len(orders) == 1 and sorted(orders[0]) == list(range(m.nrows))
            # each integer matrix is m(t) at the reference's point times the
            # lcm of all the entries' denominators, its rows and columns
            # both in the plan's order
            den = _clear_denominators([c for row in m.entries for e in row for c in e.coeffs])[1]
            order = orders[0]
            for got, at in zip(seen, want):
                assert got == [[at.data[i][j] * den for j in order] for i in order]
        assert 1 in groups and 2 in groups

    def test_wrong_point_value_is_caught(self, monkeypatch):
        # the point determinant off by one at a single point of one group
        for m in self.matrices():
            counts = []

            def count(rows, n):
                counts.append(n)
                return _batched_dets(rows, n)

            monkeypatch.setattr(polys_mod, "_batched_dets", count)
            polymat_det(m)
            for at in range(sum(counts)):
                def off_by_one(rows, n, done=[0], at=at):
                    values = _batched_dets(rows, n)
                    k, done[0] = at - done[0], done[0] + n
                    return [x + (i == k) for i, x in enumerate(values)]

                monkeypatch.setattr(polys_mod, "_batched_dets", off_by_one)
                with pytest.raises(RuntimeError, match="determinant cross-check failed"):
                    polymat_det(m)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_wrong_coefficient_is_caught(self, monkeypatch, delta):
        elimination = polys_mod._kronecker_det
        for m in self.matrices():
            det = elimination(m.ints)
            for k in range(max(len(det), 1)):
                def off_by_one(rows, k=k):
                    out = list(elimination(rows)) or [0]
                    out[k] += delta
                    return out

                monkeypatch.setattr(polys_mod, "_kronecker_det", off_by_one)
                with pytest.raises(RuntimeError, match="determinant cross-check failed"):
                    polymat_det(m)
            monkeypatch.setattr(polys_mod, "_kronecker_det", elimination)
            assert polymat_det(m) == Polynomial([F(c, m.den**m.nrows) for c in det])

    def test_degree_above_bound_is_caught(self, monkeypatch):
        # one more signed base-2**w digit, at t**(bound + 1): no sample
        # point is needed to see it, so the guard raises before the checks
        int_det = polys_mod._bareiss_int_det
        for m in self.matrices():
            bound = max(sum(max(len(e) for e in row) - 1 for row in m.ints), 0)
            h2 = 1
            for row in m.ints:
                h2 *= sum(sum(abs(c) for c in e) ** 2 for e in row)
            w = isqrt(h2).bit_length() + 2

            def beyond(rows):
                return int_det(rows) + 2 ** (w * (bound + 1))

            monkeypatch.setattr(polys_mod, "_bareiss_int_det", beyond)
            with pytest.raises(RuntimeError, match="determinant degree above its bound"):
                polymat_det(m)
            monkeypatch.setattr(polys_mod, "_bareiss_int_det", int_det)
            polymat_det(m)


def _fraction_root_multiplicity(p, r):
    """root_multiplicity over Fractions (the route before Z[t])."""
    r = F(r)
    count = 0
    lin = Polynomial([-r, 1])
    while not p.is_zero() and p(r) == 0:
        p = polynomial_divmod(p, lin)[0]
        count += 1
    return count


def _fraction_divides(d, p):
    """Polynomial.divides over Fractions (the route before Z[t])."""
    if d.is_zero():
        return p.is_zero()
    return polynomial_divmod(p, d)[1].is_zero()


_T = sympy.Symbol("t")


def _sympy_expr(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * _T**k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


_RATIONALS = st.builds(F, st.integers(-6, 6), st.integers(1, 5))
_POLYS = st.lists(_RATIONALS, min_size=0, max_size=4).map(Polynomial)
_NONZERO_POLYS = _POLYS.filter(lambda p: not p.is_zero())


class TestZtRoutes:
    """root_multiplicity and divides on Z[t] against the Fraction routes and
    sympy, on products of (b t - a)**k with other factors."""

    @settings(max_examples=150, deadline=None)
    @given(_RATIONALS, st.integers(0, 4), st.lists(_NONZERO_POLYS, max_size=3),
           _RATIONALS.filter(lambda c: c != 0), _RATIONALS)
    def test_root_multiplicity(self, root, k, others, lead, probe):
        p = Polynomial([lead]) * Polynomial([-root.numerator, root.denominator]) ** k
        p = p * _product(others)
        found = sympy.roots(_sympy_expr(p), _T, filter="Q")
        for r in (root, probe):
            got = root_multiplicity(p, r)
            assert got == _fraction_root_multiplicity(p, r)
            assert got == found.get(sympy.Rational(r.numerator, r.denominator), 0)
        assert root_multiplicity(p, root) >= k

    @settings(max_examples=150, deadline=None)
    @given(_POLYS, _POLYS, _POLYS, st.booleans())
    def test_divides(self, d, q, r, exact):
        p = d * q if exact else d * q + r
        got = d.divides(p)
        assert got == _fraction_divides(d, p)
        if exact:
            assert got
        if not d.is_zero():
            assert got == (sympy.rem(_sympy_expr(p), _sympy_expr(d), _T) == 0)

    def test_zero_polynomial(self):
        zero = Polynomial()
        for r in (F(0), F(2, 3), F(-5)):
            assert root_multiplicity(zero, r) == 0
        assert zero.divides(zero)
        assert not zero.divides(poly(1))
        assert poly(F(2, 3)).divides(zero)
        assert poly(-1, 3).divides(zero)

    def test_root_with_denominator(self):
        p = poly(-2, 3) ** 3 * poly(1, 0, 1) * F(5, 7)
        assert root_multiplicity(p, F(2, 3)) == 3
        assert root_multiplicity(p, F(-2, 3)) == 0
        assert root_multiplicity(poly(0, 0, F(1, 2)), 0) == 2


# coefficients with mixed denominators and frequent zeros, up to degree 6
_MIXED = st.one_of(st.just(F(0)), st.builds(F, st.integers(-20, 20),
                                            st.sampled_from((1, 2, 3, 4, 7, 12, 35))))
_QPOLYS = st.lists(_MIXED, max_size=7).map(Polynomial)


def _qq(p):
    return sympy.Poly(_sympy_expr(p), _T, domain=sympy.QQ)


def _from_qq(sp):
    return Polynomial([F(str(c)) for c in reversed(sp.all_coeffs())])


def _assert_canonical(p):
    assert p.den > 0 and gcd(p.den, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0
    assert all(type(c) is int for c in p.ints)
    assert p.coeffs == tuple(F(c, p.den) for c in p.ints)


class TestPolynomialAgainstSympy:
    """`Polynomial` as integer coefficients over one denominator, against
    sympy.Poly over QQ."""

    @settings(max_examples=200, deadline=None)
    @given(_QPOLYS, _QPOLYS)
    def test_ring_operations(self, a, b):
        for got, want in ((a + b, _qq(a) + _qq(b)), (a - b, _qq(a) - _qq(b)),
                          (a * b, _qq(a) * _qq(b)), (-a, -_qq(a))):
            _assert_canonical(got)
            assert got == _from_qq(want)

    @settings(max_examples=200, deadline=None)
    @given(_QPOLYS, _QPOLYS.filter(bool))
    def test_divmod(self, a, b):
        q, r = polynomial_divmod(a, b)
        wq, wr = _qq(a).div(_qq(b))
        _assert_canonical(q)
        _assert_canonical(r)
        assert (q, r) == (_from_qq(wq), _from_qq(wr))

    @settings(max_examples=200, deadline=None)
    @given(_QPOLYS, _MIXED, st.integers(0, 3))
    def test_value_monic_reversal_derivative(self, a, t, extra):
        assert a(t) == F(str(_qq(a).eval(sympy.Rational(t.numerator, t.denominator))))
        assert a.derivative() == _from_qq(_qq(a).diff(_T))
        if a:
            assert a.monic() == _from_qq(_qq(a).monic())
            assert a.monic().leading == 1
        else:
            assert a.monic() == a
        grade = max(a.degree, 0) + extra
        want = sympy.expand(_T**grade * _sympy_expr(a).subs(_T, 1 / _T))
        got = a.reversal(grade)
        _assert_canonical(got)
        assert got == _from_qq(sympy.Poly(want, _T, domain=sympy.QQ))

    @settings(max_examples=100, deadline=None)
    @given(_QPOLYS, _MIXED.filter(bool))
    def test_equal_values_have_equal_integers_denominator_and_hash(self, a, c):
        routes = [Polynomial(a.coeffs), Polynomial(a.ints, a.den),
                  Polynomial([5 * x for x in a.ints] + [0, 0], 5 * a.den),
                  Polynomial([-x for x in a.ints], -a.den),
                  a * Polynomial([c]) * Polynomial([1 / c]), a + Polynomial(), a * 1, 0 + a]
        for b in routes:
            assert (b.ints, b.den, hash(b)) == (a.ints, a.den, hash(a))

    def test_hash_agrees_with_equality(self):
        assert Polynomial([3]) == 3 and len({Polynomial([3]), 3}) == 1
        assert len({Polynomial([F(1, 2)]), F(1, 2)}) == 1
        assert len({Polynomial(), 0, F(0)}) == 1
        p = poly(F(1, 2), F(-2, 3), 1)
        assert (p.ints, p.den) == ((3, -4, 6), 6)
        assert hash(p) == hash(((3, -4, 6), 6))


def _random_poly(rng, degree, size=9, dens=(1, 2, 3, 5)):
    """A random polynomial of exactly the given degree, rational coefficients."""
    coeffs = [F(rng.randint(-size, size), rng.choice(dens)) for _ in range(degree)]
    return Polynomial(coeffs + [F(rng.choice((-1, 1)) * rng.randint(1, size), rng.choice(dens))])


def _sympy_monic(p):
    return tuple(F(int(c.p), int(c.q))
                 for c in reversed(sympy.Poly(p, _T).monic().all_coeffs()))


def _sympy_sqf(p):
    """sympy's squarefree factors of p, each monic, with multiplicities."""
    _, factors = sympy.sqf_list(_sympy_expr(p), _T)
    return sorted((_sympy_monic(f), k) for f, k in factors)


class TestZtGcd:
    """poly_gcd and squarefree_decomposition over Z[t] against sympy and the
    Euclid route over Q."""

    def test_gcd_of_seeded_products(self):
        rng = random.Random(41)
        for _ in range(40):
            common = _product(_random_poly(rng, rng.randint(0, 3)) ** rng.randint(1, 3)
                              for _ in range(rng.randint(0, 3)))
            a = common * _random_poly(rng, rng.randint(0, 5))
            b = common * _random_poly(rng, rng.randint(0, 5))
            got = poly_gcd(a, b)
            assert got == q_poly_gcd(a, b)
            assert got.coeffs == _sympy_monic(sympy.gcd(_sympy_expr(a), _sympy_expr(b)))
            assert got.divides(common) or common.degree == 0

    def test_high_degree_nontrivial_gcd(self):
        # a degree-24 gcd under degree-20 cofactors with 3-digit integer
        # coefficients: the remainder sequence runs 20 steps above it
        rng = random.Random(43)
        common = _random_poly(rng, 24, size=999, dens=(1,))
        a = common * _random_poly(rng, 20, size=999, dens=(1,))
        b = common * _random_poly(rng, 19, size=999, dens=(1, 7))
        got = poly_gcd(a, b)
        assert got == common.monic() == q_poly_gcd(a, b)
        assert got.coeffs == _sympy_monic(sympy.gcd(_sympy_expr(a), _sympy_expr(b)))
        # the Euclid route over Q takes seconds here, so sympy is the oracle
        parts = squarefree_decomposition(a * common)
        assert sorted((f.coeffs, k) for f, k in parts) == _sympy_sqf(a * common)
        assert [k for _, k in parts] == [1, 2] and parts[1][0] == common.monic()

    def test_zero_and_constant_arguments(self):
        p = poly(F(1, 2), 3, F(-2, 3))
        assert poly_gcd(Polynomial(), Polynomial()) == Polynomial()
        assert poly_gcd(p, Polynomial()) == poly_gcd(Polynomial(), p) == p.monic()
        assert poly_gcd(p, poly(F(-5, 7))) == poly(1)
        assert poly_gcd(poly(3), Polynomial()) == poly(1)
        assert squarefree_decomposition(poly(F(4, 9))) == []
        with pytest.raises(ZeroPolynomialError):
            squarefree_decomposition(Polynomial())

    def test_squarefree_of_seeded_repeated_factors(self):
        rng = random.Random(47)
        for _ in range(40):
            factors = [_random_poly(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            p = Polynomial([F(rng.randint(1, 9), rng.randint(1, 9))])
            for f in factors:
                p = p * f ** rng.randint(1, 4)
            got = squarefree_decomposition(p)
            assert got == q_squarefree_decomposition(p)
            assert sorted((f.coeffs, k) for f, k in got) == _sympy_sqf(p)
            assert all(f.leading == 1 for f, _ in got)

    def test_squarefree_of_graph_determinants(self):
        rng = random.Random(53)
        graphs = [bowtie(), complete_undirected(4), undirected_cycle(5)]
        graphs += [random_connected_graph(rng, 8, 3, oneway=0.3) for _ in range(2)]
        for g in graphs:
            for tau in (F(1), F(1, 2), F(1, 3)):
                det = polymat_det(tau_dgl(g, tau))
                got = squarefree_decomposition(det)
                assert got == q_squarefree_decomposition(det), (g.edges, tau)
                assert sorted((f.coeffs, k) for f, k in got) == _sympy_sqf(det)


@st.composite
def _root_cases(draw):
    """(p, lo, hi, include_hi): p has rational roots of multiplicity up to
    3 times a random factor that may be squared, so repeated rational and
    irrational roots both occur; lo and hi are drawn from the rational
    roots as often as not, so roots sit at either end."""
    small = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
    roots = draw(st.lists(st.tuples(small, st.integers(1, 3)), max_size=3))
    p = Polynomial([draw(_RATIONALS.filter(lambda c: c != 0))])
    for r, k in roots:
        p = p * Polynomial([-r, 1]) ** k
    other = draw(_QPOLYS.filter(lambda q: not q.is_zero()))
    p = p * (other * other if draw(st.booleans()) else other)
    ends = st.sampled_from([r for r, _ in roots]) if roots else small
    lo, hi = sorted([draw(st.one_of(ends, small)), draw(st.one_of(ends, small))])
    if lo == hi:
        hi = lo + F(1, draw(st.integers(1, 3)))
    return p, lo, hi, draw(st.booleans())


def _roots_in(factor, lo, hi):
    """Distinct roots of a sympy Poly in the half-open (lo, hi]."""
    return factor.count_roots(lo, hi) - (factor.eval(lo) == 0)


class TestRealRootsSympy:
    """`real_roots` against sympy's root counts and its squarefree
    factorization: the count in (lo, hi] (or (lo, hi)), one sympy root in
    each returned interval or value, and each root's multiplicity."""

    @settings(max_examples=150, deadline=None)
    @given(_root_cases())
    def test_counts_intervals_and_multiplicities(self, case):
        p, lo, hi, include_hi = case
        sp = _qq(p)
        slo = sympy.Rational(lo.numerator, lo.denominator)
        shi = sympy.Rational(hi.numerator, hi.denominator)
        records = real_roots(p, lo, hi, include_hi=include_hi)
        want = _roots_in(sp, slo, shi) - (not include_hi and sp.eval(shi) == 0)
        assert len(records) == want
        factors = [(sympy.Poly(f, _T, domain=sympy.QQ), k) for f, k in sp.sqf_list()[1]]
        previous = None
        for rec in records:
            if rec.is_exact:
                v = sympy.Rational(rec.value.numerator, rec.value.denominator)
                assert lo < rec.value <= hi and (include_hi or rec.value < hi)
                assert sp.eval(v) == 0
                mults = [k for f, k in factors if f.eval(v) == 0]
                start, end = rec.value, rec.value
            else:
                assert lo <= rec.lo < rec.hi <= hi
                assert rec.hi - rec.lo <= F(1, 10**12)
                a = sympy.Rational(rec.lo.numerator, rec.lo.denominator)
                b = sympy.Rational(rec.hi.numerator, rec.hi.denominator)
                assert _roots_in(sp, a, b) == 1
                mults = [k for f, k in factors if _roots_in(f, a, b)]
                start, end = rec.lo, rec.hi
            assert mults == [rec.multiplicity]
            # sorted and disjoint, so no sympy root is reported twice
            if previous is not None:
                assert start > previous or (start == previous and not rec.is_exact)
            previous = end

    def test_repeated_roots_at_both_ends(self):
        # (t - 1)**2 (t - 2)**3 (t**2 - 2)**2 on (1, 2]: sqrt 2 twice and 2
        # three times; 1 is outside
        p = poly(-1, 1) ** 2 * poly(-2, 1) ** 3 * poly(-2, 0, 1) ** 2
        got = real_roots(p, 1, 2)
        assert [(r.is_exact, r.multiplicity) for r in got] == [(False, 2), (True, 3)]
        assert got[0].lo < F(1414213562373095, 10**15) < got[0].hi
        assert [r.multiplicity for r in real_roots(p, 1, 2, include_hi=False)] == [2]
        assert [r.multiplicity for r in real_roots(p, 0, 2)] == [2, 2, 3]


def _with_roots(c, roots, other):
    """c times the product of (t - r)**k over roots, times other."""
    p = Polynomial([c])
    for r, k in roots:
        p = p * Polynomial([-r, 1]) ** k
    return p * other


_ENDS = st.tuples(st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
                  st.builds(F, st.integers(1, 16), st.integers(1, 4)))
_OTHER = _QPOLYS.filter(lambda q: not q.is_zero())
_WIDTH = st.sampled_from([F(1, 10**12), F(1, 10**6), F(1, 3)])
_MULT = st.integers(1, 3)


class TestOneSignRefinement:
    """`real_roots` refines each root it has isolated by the sign of the
    polynomial alone; the records equal those of the whole-chain bisection
    (`full_chain_real_roots`), in value, interval, multiplicity and order."""

    def check(self, p, lo, hi, width, include_hi):
        got = real_roots(p, lo, hi, width, include_hi)
        assert got == full_chain_real_roots(p, lo, hi, width, include_hi)
        return got

    @settings(max_examples=80, deadline=None)
    @given(_ENDS, st.lists(st.tuples(st.integers(1, 40), st.integers(0, 2**40), _MULT),
                           min_size=1, max_size=3),
           _OTHER, _WIDTH, st.booleans())
    def test_roots_at_dyadic_midpoints(self, ends, picks, other, width, include_hi):
        # lo + (hi - lo) k / 2**j is a bisection midpoint of (lo, hi]: 1/2
        # and 3/8 of (0, 1], and points the refinement reaches deep down
        lo, span = ends
        roots = [(lo + span * F(2 * (k % 2**(j - 1)) + 1, 2**j), mult)
                 for j, k, mult in picks]
        self.check(_with_roots(1, roots, other), lo, lo + span, width, include_hi)

    def test_halves_and_three_eighths(self):
        p = _with_roots(F(2, 3), [(F(1, 2), 1), (F(3, 8), 2)], poly(-2, 0, 1))
        got = self.check(p, 0, 1, F(1, 10**12), True)
        assert [(r.value, r.multiplicity) for r in got] == [(F(3, 8), 2), (F(1, 2), 1)]

    @settings(max_examples=80, deadline=None)
    @given(_ENDS, _MULT, _OTHER, _WIDTH, st.booleans())
    def test_root_at_hi(self, ends, mult, other, width, include_hi):
        lo, span = ends
        hi = lo + span
        got = self.check(_with_roots(-1, [(hi, mult)], other), lo, hi, width, include_hi)
        assert any(r.value == hi for r in got) == include_hi

    @settings(max_examples=80, deadline=None)
    @given(_ENDS, _MULT, _OTHER, _WIDTH, st.booleans())
    def test_root_at_lo(self, ends, mult, other, width, include_hi):
        lo, span = ends
        got = self.check(_with_roots(3, [(lo, mult)], other), lo, lo + span, width, include_hi)
        assert all(r.value != lo and r.lo >= lo for r in got)

    @settings(max_examples=80, deadline=None)
    @given(_ENDS, st.integers(0, 2**20), st.integers(10**9 + 1, 10**13), _MULT,
           st.booleans(), _OTHER, st.booleans())
    def test_two_roots_closer_than_1e_9(self, ends, where, split, mult, irrational, other,
                                        include_hi):
        # r and r + 1/split, or the irrational pair r +- 1/(2 sqrt(2) split),
        # which lies 1/(sqrt(2) split) apart
        lo, span = ends
        r = lo + span * F(where + 1, 2**20 + 2)
        if irrational:
            pair = Polynomial([r * r - F(1, 8 * split * split), -2 * r, 1])
            p = _with_roots(1, [], pair**mult * other)
        else:
            p = _with_roots(1, [(r, mult), (r + F(1, split), 1)], other)
        got = self.check(p, lo, lo + span, F(1, 10**12), include_hi)
        near = [rec for rec in got if r - 1 < rec.midpoint() < r + 1 and rec.hi - rec.lo < 10**-9]
        assert len(near) >= 2
