"""The row-sparse integer product and the Berkowitz characteristic
polynomial against two oracles each, the block characteristic polynomial
against the unsplit Berkowitz and sympy, the one Tarjan routine, the
primitive-row Bareiss determinant against sympy, the fraction-free solve,
inverse and rank against sympy and the Fraction eliminations before them,
the one lazy fraction-free elimination on sparse patterns and in plan order
against the determinant loop before it, the Fraction routes and sympy, and
the vertex-space weighted-Ihara sample check, on the graph's blocks,
against the whole determinant, the edge-space adjugate route and the
Fraction route before it."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nbwalks import Matrix, Polynomial, build_edge_space, v_similar, verify_weighted_ihara
from nbwalks.errors import NotSquareError
from nbwalks import edgespace as edgespace_mod
from nbwalks import exact as exact_mod
from nbwalks.exact import (
    _POINT_GROUP,
    _bareiss_int_det,
    _batched_dets,
    _clear_denominators,
    _elimination_plan,
    _fraction_free,
    _tarjan_sccs,
)
from nbwalks.ihara import _vertex_sample_check

from helpers import (
    adjugate_sample_check,
    directed_cycle,
    example1,
    fraction_rank,
    fraction_solve,
    least_height_candidates,
    parent_bareiss_int_det,
    random_connected_graph,
    random_digraph,
    single_recip_edge,
    unsplit_char_poly,
    weighted_3cycle,
)


def dense_product(a: Matrix, b: Matrix) -> Matrix:
    """The dense Fraction product the sparse integer kernel replaced."""
    cols = list(zip(*b.data)) if b.nrows else [()] * b.ncols
    return Matrix(
        [[sum((x * y for x, y in zip(row, col) if x), F(0)) for col in cols]
         for row in a.data],
        ncols=b.ncols,
    )


def to_sympy(a: Matrix):
    return sympy.Matrix(a.nrows, a.ncols, [sympy.Rational(x.numerator, x.denominator)
                                           for row in a.data for x in row])


def sympy_product(a: Matrix, b: Matrix):
    prod = to_sympy(a) * to_sympy(b)
    return [[F(int(x.p), int(x.q)) for x in prod.row(i)] for i in range(prod.rows)]


def random_matrix(rng, nrows, ncols, kind):
    def entry():
        if rng.random() < 0.4:
            return 0
        if kind == "int":
            return rng.randint(-9, 9)
        if kind == "01":
            return 1
        return F(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6, 7, 9, 12, 35)))

    return Matrix([[entry() for _ in range(ncols)] for _ in range(nrows)])


KINDS = ("int", "01", "frac")


def interpolated_char_poly(a: Matrix):
    """The route Berkowitz replaced: integer Bareiss determinants of sI - N
    at s = 0..n, interpolated, then scaled back from N = lcm * a."""
    n = a.nrows
    if n == 0:
        return [F(1)]
    flat, lcm = _clear_denominators([x for row in a.data for x in row])
    nmat = [flat[i * n:(i + 1) * n] for i in range(n)]
    values = []
    for s in range(n + 1):
        rows = [[(s if i == j else 0) - nmat[i][j] for j in range(n)] for i in range(n)]
        values.append(_bareiss_int_det(rows))
    coeffs = newton_interpolate(values)
    out = []
    power = F(1)
    scale = F(1, lcm) ** n
    for c in coeffs:
        out.append(c * power * scale)
        power *= lcm
    return out


def newton_interpolate(values):
    """Ascending coefficients of the polynomial through (0, v0), (1, v1), ..."""
    n = len(values)
    work = [F(v) for v in values]
    table = [work[0]]
    for level in range(1, n):
        work = [(work[i + 1] - work[i]) / level for i in range(len(work) - 1)]
        table.append(work[0])
    coeffs = [F(0)] * n
    basis = [F(1)]
    for k in range(n):
        for i, b in enumerate(basis):
            coeffs[i] += table[k] * b
        nxt = [F(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            nxt[i + 1] += b
            nxt[i] -= k * b
        basis = nxt
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fraction_det(rows):
    """Determinant over Q by Gaussian elimination, sharing no code with
    the integer Bareiss kernel."""
    m = [[F(x) for x in row] for row in rows]
    n = len(m)
    det = F(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return F(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def fraction_sample_check(es, step, g_poly, rhs, count):
    """The sample loop the integer route replaced: each sample matrix is
    built from Fractions, and its determinant is taken over Q."""
    n = es.n
    m = es.m
    zeds, ell = _clear_denominators([es.weight_diag.data[e][e] for e in range(m)])
    rows_sparse = []
    for e in range(m):
        row = step.data[e]
        rows_sparse.append([(f, int(x * ell)) for f, x in enumerate(row) if x])
    h = []
    for j in range(m + 1):
        gj = g_poly.coeffs[j] if j <= g_poly.degree else F(0)
        scaled = gj * ell**j
        assert scaled.denominator == 1
        h.append(int(scaled))
    r_int = [[int(x) for x in row] for row in es.target.data]
    sources = [row.index(1) for row in es.source.data]
    k_ints = []
    prev = None
    for j in range(m):
        hj = h[j]
        nxt = []
        for e in range(m):
            acc = [hj * x for x in r_int[e]]
            if prev is not None:
                for f, w in rows_sparse[e]:
                    prow = prev[f]
                    for col in range(n):
                        acc[col] += w * prow[col]
            nxt.append(acc)
        k_j = [[0] * n for _ in range(n)]
        for e in range(m):
            z, krow = zeds[e], k_j[sources[e]]
            for col, x in enumerate(nxt[e]):
                if x:
                    krow[col] += z * x
        k_ints.append(k_j)
        prev = nxt

    checked = 0
    for t in least_height_candidates():
        if checked == count:
            break
        gt = g_poly(t)
        if gt == 0 or rhs(t) == 0:
            continue
        p, q = t.numerator, t.denominator
        base = q * ell
        acc = [row[:] for row in k_ints[m - 1]]
        power = 1
        for j in range(m - 2, -1, -1):
            power *= base
            kj = k_ints[j]
            for i in range(n):
                acc[i] = [a * p + c * power for a, c in zip(acc[i], kj[i])]
        scale = t / (ell * base ** (m - 1))
        nmat = [[(gt if i == col else 0) + x * scale for col, x in enumerate(row)]
                for i, row in enumerate(acc)]
        if fraction_det(nmat) != rhs(t) * gt ** (n - 1):
            return False, checked
        checked += 1
    return True, checked


def sample_inputs(g):
    """(es, step, g_poly, rhs, count) as verify_weighted_ihara builds them."""
    es = build_edge_space(g)
    step = v_similar(es)
    g_poly = step.det_one_minus_t()
    return es, step, g_poly, verify_weighted_ihara(g).rhs, 2 * (g.n + es.m) + 1


def sample_points(g_poly, rhs, count):
    """The first ``count`` candidate points at which neither g nor rhs
    vanishes, and the candidates skipped on the way."""
    points, skipped = [], []
    for t in least_height_candidates():
        if len(points) == count:
            break
        (skipped if g_poly(t) == 0 or rhs(t) == 0 else points).append(t)
    return points, skipped


def sympy_char_poly(a: Matrix):
    """det(x I - A) by sympy's Bareiss elimination, ascending coefficients."""
    x = sympy.Symbol("x")
    det = (x * sympy.eye(a.nrows) - to_sympy(a)).det(method="bareiss")
    coeffs = sympy.Poly(det, x).all_coeffs()[::-1] if a.nrows else [det]
    return [F(int(c.p), int(c.q)) for c in map(sympy.Rational, coeffs)]


class TestProduct:
    def test_random_against_dense_and_sympy(self):
        rng = random.Random(20261018)
        for _ in range(120):
            r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(rng, r, k, rng.choice(KINDS))
            b = random_matrix(rng, k, c, rng.choice(KINDS))
            got = a * b
            assert got == dense_product(a, b)
            assert [list(row) for row in got.data] == sympy_product(a, b)
            assert got.nrows == r and got.ncols == c

    def test_entries_are_normalised_fractions(self):
        a = Matrix([[F(1, 2), F(1, 3)], [F(-1, 6), 0]])
        b = Matrix([[F(2, 3), 4], [F(3, 2), F(-5, 7)]])
        got = a * b
        assert got == dense_product(a, b)
        for row in got.data:
            for x in row:
                assert type(x) is F
        assert got[0, 0] == F(5, 6) and got[0, 0].denominator == 6

    def test_zero_rows_and_columns(self):
        a = Matrix([[0, 0, 0], [1, F(-2, 3), 0], [0, 0, 0]])
        b = Matrix([[0, 5], [0, F(1, 4)], [0, 7]])
        got = a * b
        assert got == dense_product(a, b)
        assert got.data[0] == (0, 0) and got.data[2] == (0, 0)
        assert got[1, 0] == 0 and got[1, 1] == F(29, 6)
        assert (Matrix.zeros(3, 4) * Matrix.zeros(4, 2)).is_zero()

    def test_one_by_one(self):
        assert Matrix([[F(-3, 4)]]) * Matrix([[F(2, 9)]]) == Matrix([[F(-1, 6)]])
        assert Matrix([[0]]) * Matrix([[F(2, 9)]]) == Matrix([[0]])

    def test_empty_shapes(self):
        empty = Matrix([])
        assert empty * empty == dense_product(empty, empty) == empty
        k_by_0 = Matrix([[], [], []])
        assert k_by_0.nrows == 3 and k_by_0.ncols == 0
        got = k_by_0 * empty
        assert got == dense_product(k_by_0, empty)
        assert got.nrows == 3 and got.ncols == 0

    def test_identity_and_non_square(self):
        rng = random.Random(7)
        a = random_matrix(rng, 3, 5, "frac")
        assert Matrix.identity(3) * a == a
        assert a * Matrix.identity(5) == a
        assert (a * a.transpose()).nrows == 3 and (a.transpose() * a).ncols == 5

    def test_scalar_path(self):
        a = Matrix([[1, F(-1, 2)], [0, 3]])
        assert a * F(2, 3) == Matrix([[F(2, 3), F(-1, 3)], [0, 2]])
        assert F(2, 3) * a == a * F(2, 3) == a.scale(F(2, 3))
        assert a * 0 == Matrix.zeros(2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Matrix.identity(2) * Matrix.identity(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            Matrix([[1, 2, 3]]) * Matrix([[1, 2, 3]])

    def test_edge_space_products(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_digraph(rng, 6, 0.4, weighted=True)
            es = build_edge_space(g)
            lt_z = es.source.transpose() * es.weight_diag
            step = es.hashimoto * es.weight_diag
            assert step == dense_product(es.hashimoto, es.weight_diag)
            assert lt_z * es.target == dense_product(lt_z, es.target)
            assert lt_z * es.target == g.adjacency()
            assert step * step == dense_product(step, step)


class TestShape:
    """A matrix with no rows keeps its column count, and the shape is part
    of equality."""

    @staticmethod
    def shape(a: Matrix):
        return a.nrows, a.ncols

    def test_zeros_and_transpose(self):
        assert self.shape(Matrix.zeros(0, 3)) == (0, 3)
        assert self.shape(Matrix.zeros(3, 0)) == (3, 0)
        assert self.shape(Matrix.zeros(0, 3).transpose()) == (3, 0)
        assert self.shape(Matrix.zeros(3, 0).transpose()) == (0, 3)
        assert Matrix.zeros(3, 0).transpose().transpose() == Matrix.zeros(3, 0)
        assert self.shape(Matrix([], ncols=4)) == (0, 4)
        with pytest.raises(ValueError, match="ragged rows"):
            Matrix([[1, 2]], ncols=3)

    def test_equality_and_hash_include_the_shape(self):
        assert Matrix.zeros(0, 3) != Matrix.zeros(0, 0)
        assert Matrix.zeros(0, 3) != Matrix.zeros(0, 2)
        assert Matrix.zeros(0, 3) == Matrix([], 7, 3)
        assert len({Matrix.zeros(0, 3), Matrix.zeros(0, 0), Matrix([], ncols=3)}) == 2

    @pytest.mark.parametrize("k, m, n", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 2), (2, 0, 0)])
    def test_products_and_scalar_maps_keep_the_shape(self, k, m, n):
        a, b = Matrix.zeros(k, m), Matrix.zeros(m, n)
        assert self.shape(a * b) == (k, n)
        assert a * b == dense_product(a, b) == Matrix.zeros(k, n)
        for got in (a.scale(F(2, 3)), -a, a + a, a - a, a * F(5, 7)):
            assert self.shape(got) == (k, m)

    def test_solve_with_no_unknowns(self):
        got = Matrix.identity(0).solve(Matrix.zeros(0, 3))
        assert self.shape(got) == (0, 3)
        assert self.shape(Matrix.identity(2).solve(Matrix.zeros(2, 0))) == (2, 0)


class TestCharPoly:
    def check(self, a: Matrix, with_sympy=True):
        got = a.char_poly()
        assert type(got) is Polynomial
        assert got.degree == a.nrows and got.leading == 1
        assert got == Polynomial(interpolated_char_poly(a))
        if with_sympy:
            assert got == Polynomial(sympy_char_poly(a))
        coeffs = list(got.coeffs)
        assert a.det_one_minus_t() == Polynomial(coeffs[::-1])
        return coeffs

    def test_random_against_interpolation_and_sympy(self):
        rng = random.Random(20261019)
        for _ in range(60):
            n = rng.randint(1, 7)
            self.check(random_matrix(rng, n, n, rng.choice(KINDS)), with_sympy=n <= 5)

    def test_mixed_denominators(self):
        a = Matrix([[F(-1, 2), F(3, 7), 0], [F(5, 9), 0, F(-4, 35)], [1, F(-2, 3), F(1, 12)]])
        got = self.check(a)
        assert got[0] == -a.det()
        assert got[2] == -sum(a[i, i] for i in range(3))

    def test_zero_and_nilpotent(self):
        for n in range(6):
            assert self.check(Matrix.zeros(n, n)) == [0] * n + [1]
        rng = random.Random(4)
        for n in range(1, 8):
            upper = Matrix([[F(rng.randint(-9, 9), rng.randint(1, 5)) if j > i else 0
                             for j in range(n)] for i in range(n)])
            assert self.check(upper, with_sympy=n <= 5) == [0] * n + [1]
            assert self.check(upper.transpose(), with_sympy=False) == [0] * n + [1]

    def test_empty_and_one_by_one(self):
        assert self.check(Matrix([])) == [1]
        assert self.check(Matrix([[F(-3, 4)]])) == [F(3, 4), 1]
        assert self.check(Matrix([[0]])) == [0, 1]

    def test_edge_space_matrices(self):
        rng = random.Random(9)
        for _ in range(8):
            g = random_digraph(rng, 5, 0.45, weighted=True)
            es = build_edge_space(g)
            self.check(es.hashimoto, with_sympy=es.m <= 8)
            self.check(v_similar(es), with_sympy=es.m <= 8)
        es = build_edge_space(example1())
        assert es.hashimoto.det_one_minus_t() == Polynomial([1, 0, 0, -1])

    def test_not_square(self):
        for a in (Matrix([[1, 2, 3]]), Matrix([[1], [2]]), Matrix([[], []])):
            with pytest.raises(NotSquareError):
                a.char_poly()
            with pytest.raises(NotSquareError):
                a.det_one_minus_t()


class TestBareissIntDet:
    def check(self, rows):
        before = [row[:] for row in rows]
        got = _bareiss_int_det(rows)
        assert type(got) is int
        assert rows == before
        n = len(rows)
        want = sympy.Matrix(n, n, [x for row in rows for x in row]).det() if n else 1
        assert got == want
        return got

    def test_random_against_sympy(self):
        rng = random.Random(20261018)
        for _ in range(80):
            n = rng.randint(1, 7)
            bits = rng.choice((3, 20, 90))
            rows = [[rng.randint(-(1 << bits), 1 << bits) if rng.random() < 0.7 else 0
                     for _ in range(n)] for _ in range(n)]
            self.check(rows)

    def test_shared_row_factors(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for row in rows:
                c = rng.choice((1, 2, 6, -7, 3**40))
                row[:] = [c * x for x in row]
            self.check(rows)
        assert self.check([[4, 6], [9, 3]]) == -42
        assert self.check([[-6, -10], [15, 35]]) == -60

    def test_zero_row_and_singular(self):
        assert self.check([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
        assert self.check([[0, 0], [0, 0]]) == 0
        assert self.check([[2, 4, 6], [1, 2, 3], [7, -1, 5]]) == 0
        assert self.check([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(2, 6)
            rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n - 1)]
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.insert(rng.randrange(n), [a * x + b * y for x, y in zip(rows[0], rows[-1])])
            assert self.check(rows) == 0

    def test_negative_entries_and_pivoting(self):
        assert self.check([[0, -1], [-1, 0]]) == -1
        assert self.check([[0, 2, -3], [-4, 0, 5], [6, -7, 0]]) == 2 * 5 * 6 - 3 * 4 * 7
        assert self.check([[-2, 0, 0], [0, -3, 0], [0, 0, -5]]) == -30

    def test_empty_and_one_by_one(self):
        assert _bareiss_int_det([]) == 1
        assert self.check([[-12]]) == -12
        assert self.check([[0]]) == 0
        assert self.check([[1]]) == 1


def all_routes(es, step, g_poly, rhs, count):
    """(ok, checked) of the vertex check, once the adjugate and Fraction
    references have returned the same."""
    got = _vertex_sample_check(es, g_poly, rhs, count)
    assert adjugate_sample_check(es, g_poly, rhs, count) == got
    assert fraction_sample_check(es, step, g_poly, rhs, count) == got
    return got


# entries with mixed denominators, often zero, so that
# zero pivots, pivot swaps and singular matrices all come up
_ENTRIES = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 4, 6, 7, 35))),
)


def _matrices(nrows, ncols):
    return st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(Matrix)


_SYSTEMS = st.tuples(st.integers(0, 6), st.integers(0, 4)).flatmap(
    lambda nw: st.tuples(_matrices(nw[0], nw[0]), _matrices(nw[0], nw[1])))
_RECTANGULAR = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: _matrices(*shape))


def _low_rank(rng, nrows, ncols, rank):
    """A product of random nrows x rank and rank x ncols factors."""
    left = random_matrix(rng, nrows, rank, "frac")
    return left * random_matrix(rng, rank, ncols, "frac") if rank else Matrix.zeros(nrows, ncols)


class TestSolve:
    """`solve`, `inverse` and `rank` on fraction-free integer rows."""

    @settings(max_examples=200, deadline=None)
    @given(_SYSTEMS)
    def test_solve_against_sympy_and_fraction_route(self, system):
        a, rhs = system
        got = a.solve(rhs)
        assert got == fraction_solve(a, rhs)
        sa = to_sympy(a)
        if sa.det() == 0:
            assert got is None
        else:
            assert got is not None and a * got == rhs
            expected = sa.inv() * to_sympy(rhs)
            assert [list(row) for row in got.data] == [
                [F(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(a.nrows)]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: _matrices(n, n)))
    def test_inverse_against_sympy_and_fraction_route(self, a):
        got = a.inverse()
        assert got == fraction_solve(a, Matrix.identity(a.nrows))
        if to_sympy(a).det() == 0:
            assert got is None
        else:
            assert a * got == Matrix.identity(a.nrows) == got * a
            inv = to_sympy(a).inv()
            assert got == Matrix([[F(int(x.p), int(x.q)) for x in inv.row(i)]
                                  for i in range(a.nrows)])

    @settings(max_examples=200, deadline=None)
    @given(_RECTANGULAR)
    def test_rank_against_sympy_and_fraction_route(self, a):
        got = a.rank()
        assert got == fraction_rank(a)
        assert got == (to_sympy(a).rank() if a.nrows and a.ncols else 0)

    def test_rank_deficient_products(self):
        rng = random.Random(12)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rank = rng.randint(0, min(nrows, ncols))
            a = _low_rank(rng, nrows, ncols, rank)
            got = a.rank()
            assert got == fraction_rank(a) == to_sympy(a).rank() <= rank
            if a.nrows == a.ncols and got < a.nrows:
                assert a.inverse() is None
                assert a.solve(random_matrix(rng, nrows, 2, "frac")) is None

    def test_zero_pivots_need_swaps(self):
        # every leading entry is 0, so each step takes a row from below
        a = Matrix([[0, 0, 2], [0, F(1, 3), 1], [F(5, 2), 1, 0]])
        rhs = Matrix([[1, 0], [0, F(2, 7)], [F(-1, 2), 3]])
        got = a.solve(rhs)
        assert got == fraction_solve(a, rhs) and a * got == rhs
        perm = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert perm.inverse() == perm.transpose()
        assert perm.rank() == 3

    def test_singular_and_empty(self):
        singular = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, F(1, 2)]])
        assert singular.solve(Matrix.identity(3)) is None
        assert singular.inverse() is None
        assert singular.rank() == fraction_rank(singular) == 2
        assert Matrix.zeros(3, 3).inverse() is None and Matrix.zeros(3, 2).rank() == 0
        assert Matrix([]).inverse() == Matrix([])
        assert Matrix([]).rank() == 0
        assert Matrix([[F(-3, 4)]]).inverse() == Matrix([[F(-4, 3)]])
        with pytest.raises(ValueError):
            singular.solve(Matrix.identity(2))

    def test_pivots_are_minors(self):
        # a full elimination of [A | I] ends with the last pivot p equal to
        # det A times the sign of the row swaps, and the right-hand block is
        # then p A^-1, an integer matrix
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(n)]
                    for _ in range(n)]
            work = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
            rank, pivot, sign = _fraction_free(work, n, True)
            det = _bareiss_int_det(rows)
            if det == 0:
                assert rank < n
            else:
                assert rank == n and pivot == sign * det
                assert Matrix(rows) * Matrix(work) == Matrix.identity(n).scale(pivot)

    def test_generating_function_systems(self):
        # the systems centrality solves: M(t) on graphs, the vertex-space
        # Y Phi = D of weighted mode, and I - t B Z on the edge space, where
        # most entries are 0
        for g in (example1(), directed_cycle(4), weighted_3cycle(),
                  random_digraph(random.Random(3), 6, 0.4, weighted=True)):
            es = build_edge_space(g)
            for t in (F(1, 5), F(2, 7)):
                base = Matrix.identity(es.m) - v_similar(es).scale(t)
                assert base.solve(es.target) == fraction_solve(base, es.target)
                rows, scales = es.vertex_plan.rows(t.numerator, t.denominator * es.vertex_plan.ell)
                y, d = Matrix(rows, 1), Matrix.diagonal(scales)
                assert y.solve(d) == fraction_solve(y, d)
                m = Matrix.identity(g.n) - g.adjacency().scale(t)
                assert m.inverse() == fraction_solve(m, Matrix.identity(g.n))


class TestWeightedIharaSamples:
    GRAPHS = (example1, weighted_3cycle, lambda: single_recip_edge(F(5, 2), F(3, 7)))
    # g(t) = det(I - t B Z) vanishes at sample candidates: 1 - t^4 at t = 1
    # and t = -1 for the unit 4-cycle, 1 - 8 t^3 at t = 1/2 for the 3-cycles
    # of weight product 8
    SKIPPING = (lambda: directed_cycle(4), lambda: directed_cycle(3, [2, 2, 2]),
                lambda: directed_cycle(3, [F(1, 2), 4, 4]))
    SKIPPED = ([F(1), F(-1)], [F(1, 2)], [F(1, 2)])

    def reference_graphs(self):
        rng = random.Random(20261018)
        graphs = [build() for build in self.GRAPHS + self.SKIPPING]
        graphs.append(single_recip_edge(1, 1))
        for weighted in (True, False):
            for _ in range(6):
                graphs.append(random_digraph(rng, rng.randint(2, 5), 0.45, weighted=weighted))
        return graphs

    @pytest.mark.parametrize("build", GRAPHS)
    def test_sample_count(self, build):
        g = build()
        cert = verify_weighted_ihara(g)
        assert cert.equal
        assert cert.details["sample_points"] == 2 * (g.n + g.m) + 1
        assert cert.details["samples_consistent"] is True

    def test_random_weighted(self):
        rng = random.Random(11)
        for _ in range(6):
            g = random_digraph(rng, 5, 0.45, weighted=True)
            cert = verify_weighted_ihara(g)
            assert cert.equal
            assert cert.details["sample_points"] == 2 * (g.n + g.m) + 1

    @pytest.mark.parametrize("build", GRAPHS)
    def test_perturbed_rhs_fails(self, build):
        es, step, g_poly, rhs, count = sample_inputs(build())
        assert all_routes(es, step, g_poly, rhs, count) == (True, count)
        for bad in (rhs + Polynomial([0, 0, 0, F(1, 5)]), rhs * Polynomial([F(3, 2)])):
            ok, checked = all_routes(es, step, g_poly, bad, count)
            assert ok is False and checked < count

    @pytest.mark.parametrize("build, expected", zip(SKIPPING, SKIPPED),
                             ids=["unit-4-cycle", "3-cycle-2-2-2", "3-cycle-half-4-4"])
    def test_skipped_candidate(self, build, expected):
        es, step, g_poly, rhs, count = sample_inputs(build())
        points, skipped = sample_points(g_poly, rhs, count)
        assert skipped == expected
        assert all_routes(es, step, g_poly, rhs, count) == (True, count)
        # a wrong rhs is caught at a point after the skipped one
        bad = rhs + Polynomial([-points[1], 1]) * Polynomial([-points[0], 1])
        assert all_routes(es, step, g_poly, bad, count) == (False, 2)

    def test_point_where_a_pair_factor_vanishes(self):
        # with unit weights 1 - t^2 w w' is 0 at t = 1 and t = -1, the second
        # and third candidates; rhs is 0 there, so both are skipped, but a
        # rhs wrong only at one of them is not 0 there, and fails there
        es, step, g_poly, rhs, count = sample_inputs(single_recip_edge(1, 1))
        points, skipped = sample_points(g_poly, rhs, count)
        assert skipped == [1, -1] and rhs(F(1)) == rhs(F(-1)) == 0
        assert all_routes(es, step, g_poly, rhs, count) == (True, count)
        candidates = points[:1] + skipped + points[1:]
        for k in (1, 2):
            vanishing = Polynomial([1])
            for t in candidates[:k] + candidates[k + 1:]:
                vanishing = vanishing * Polynomial([-t, 1])
            bad = rhs + vanishing
            assert [t for t in candidates if bad(t) != rhs(t)] == [candidates[k]]
            # the other of t = 1 and -1 is still skipped
            assert all_routes(es, step, g_poly, bad, count) == (False, 1)

    def test_matches_fraction_route(self):
        graphs = self.reference_graphs()
        assert any(not g.is_unweighted() and len({w.denominator for _, _, w in g.edges}) > 2
                   for g in graphs)
        assert any(g.edge_set() != {(v, u) for u, v in g.edge_set()} for g in graphs)
        for g in graphs:
            es, step, g_poly, rhs, count = sample_inputs(g)
            assert all_routes(es, step, g_poly, rhs, count) == (True, count)
            for few in (0, 1, 3):
                assert _vertex_sample_check(es, g_poly, rhs, few) == (True, few)
                assert adjugate_sample_check(es, g_poly, rhs, few) == (True, few)

    def test_perturbed_rhs_matches_fraction_route(self):
        same = 0
        for g in self.reference_graphs():
            es, step, g_poly, rhs, count = sample_inputs(g)
            points, _ = sample_points(g_poly, rhs, count)
            t0, t1 = points[0], points[1]
            perturbed = [
                # agrees at t = 0, the first checked point, only
                (rhs + Polynomial([0, 0, 0, F(1, 5)]), 1),
                (rhs * Polynomial([F(3, 2)]), 0),
                (-rhs, 0),
                # agrees at the first checked point only
                (rhs + Polynomial([-t0, 1]) * Polynomial([F(2, 7)]), 1),
                # agrees at the first two checked points only
                (rhs + Polynomial([-t0, 1]) * Polynomial([-t1, 1]), 2),
            ]
            for bad, stated in perturbed:
                # the check skips the zeros of the rhs it is given: where
                # rhs(t) = 0 but bad(t) != 0, t is one of bad's points and
                # fails there; where both have the same points, the stated
                # point is the first to fail
                bad_points = sample_points(g_poly, bad, count)[0]
                first = next(k for k, t in enumerate(bad_points) if bad(t) != rhs(t))
                if bad_points[:stated + 1] == points[:stated + 1]:
                    assert first == stated
                    same += 1
                assert all_routes(es, step, g_poly, bad, count) == (False, first)
        assert same >= 40

    def test_vertex_rows_invert_phi(self):
        # (I - X(t))^-1 == Phi(t) = I + t L^T Z (I - t B Z)^-1 R wherever no
        # pair has 1 - t^2 w w' = 0: the identity checked is the one stated
        points = [F(1, 2), F(-1), F(3, 2), F(-2), F(2, 3), F(-1, 3)]
        checked = 0
        for g in self.reference_graphs():
            es, step, g_poly, _, _ = sample_inputs(g)
            _, ell = _clear_denominators(es.weights)
            w = es.weights
            for t in points:
                factors = {e: 1 - t * t * w[e] * w[f] for e, f in enumerate(es.reverse)
                           if f is not None}
                if 0 in factors.values() or g_poly(t) == 0:
                    continue
                p, q = t.numerator, t.denominator
                s = q * ell
                scale = [s] * g.n
                for e, factor in factors.items():
                    scale[es.tails[e]] *= s * s * factor
                y, scales = es.vertex_plan.rows(p, s)
                assert scales == scale
                i_minus_x = Matrix([[F(x) / c for x in row] for row, c in zip(y, scale)])
                solved = (Matrix.identity(es.m) - step.scale(t)).solve(es.target)
                phi = Matrix.identity(g.n) + (
                    es.source.transpose() * es.weight_diag * solved).scale(t)
                assert i_minus_x.inverse() == phi, (g.edges, t)
                checked += 1
        assert checked > 60


@st.composite
def _squares(draw, max_n=5):
    """Square matrices with mixed denominators; often the first pivot is 0
    (a swap is needed) or a whole row is 0."""
    n = draw(st.integers(0, max_n))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        rows[0][0] = F(0)
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [F(0)] * n
    return Matrix(rows)


_PAIRS = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: st.tuples(_matrices(*shape), _matrices(*shape)))
_CHAINS = st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda dims: st.tuples(_matrices(dims[0], dims[1]), _matrices(dims[1], dims[2])))
_SCALARS = st.builds(F, st.integers(-12, 12), st.integers(1, 30))


def from_sympy(sm) -> Matrix:
    return Matrix([[F(int(x.p), int(x.q)) for x in sm.row(i)] for i in range(sm.rows)])


def assert_canonical(a: Matrix):
    """Integer rows over a positive denominator in lowest terms, and the
    Fraction view agreeing with them."""
    assert a.den > 0 and gcd(a.den, *(x for row in a.ints for x in row)) == 1
    assert all(type(x) is int for row in a.ints for x in row)
    assert a.data == tuple(tuple(F(x, a.den) for x in row) for row in a.ints)
    assert hash(a) == hash((a.ints, a.den, a.ncols))


class TestIntegerRepresentation:
    """`Matrix` as integer rows over one denominator, against sympy."""

    @settings(max_examples=150, deadline=None)
    @given(_squares())
    def test_det_and_char_poly_against_sympy(self, a):
        assert_canonical(a)
        sa = to_sympy(a)
        if not a.nrows:
            assert a.det() == 1 and a.char_poly() == Polynomial([1])
            return
        assert a.det() == F(str(sa.det()))
        want = sa.charpoly(sympy.Symbol("t")).all_coeffs()[::-1]
        assert a.char_poly() == Polynomial([F(str(c)) for c in want])

    @settings(max_examples=150, deadline=None)
    @given(_PAIRS, _SCALARS)
    def test_sum_difference_scale_transpose_against_sympy(self, pair, c):
        a, b = pair
        if not a.nrows:  # sympy keeps the column count of an empty matrix
            assert a + b == a - b == a.transpose() == Matrix([])
            return
        sa, sb = to_sympy(a), to_sympy(b)
        for got, want in ((a + b, sa + sb), (a - b, sa - sb),
                          (a.scale(c), sa * sympy.Rational(c.numerator, c.denominator)),
                          (-a, -sa)):
            assert_canonical(got)
            assert got == from_sympy(want)
        if a.ncols:
            assert a.transpose() == from_sympy(sa.T)
            assert_canonical(a.transpose())

    @settings(max_examples=150, deadline=None)
    @given(_CHAINS)
    def test_product_against_sympy(self, pair):
        a, b = pair
        got = a * b
        assert_canonical(got)
        if b.ncols:
            assert got == from_sympy(to_sympy(a) * to_sympy(b))
        assert (got.nrows, got.ncols) == (a.nrows, b.ncols if b.nrows else 0)

    @settings(max_examples=100, deadline=None)
    @given(_PAIRS, _SCALARS.filter(bool))
    def test_equal_values_have_equal_rows_denominator_and_hash(self, pair, c):
        a, _ = pair
        routes = [
            Matrix(a.data),
            Matrix(a.ints, a.den),
            Matrix([[3 * x for x in row] for row in a.ints], 3 * a.den),
            Matrix([[-x for x in row] for row in a.ints], -a.den),
            a.scale(c).scale(1 / c),
            a + Matrix.zeros(a.nrows, a.ncols),
        ]
        if a.nrows:
            routes += [Matrix.identity(a.nrows) * a, a * Matrix.identity(a.ncols)]
        for b in routes:
            assert (b.ints, b.den, hash(b)) == (a.ints, a.den, hash(a))
            assert b == a

    def test_canonical_examples(self):
        a = Matrix([[F(1, 2), F(-1, 3)], [0, 2]])
        assert a.ints == ((3, -2), (0, 12)) and a.den == 6
        assert Matrix([[2, 4]], 6).ints == ((1, 2),) and Matrix([[2, 4]], 6).den == 3
        assert Matrix([[0, 0]], 7).den == 1
        assert Matrix([[1]], -2) == Matrix([[F(-1, 2)]])
        assert Matrix([[F(1, 2)]]) * Matrix([[2]]) == Matrix.identity(1)
        assert Matrix.identity(1).den == 1 and Matrix([["0.25"]]).ints == ((1,),)
        assert Matrix([[0.5, 1]]).data == ((F(1, 2), F(1)),)

    def test_sum_and_difference_need_equal_shapes(self):
        a = Matrix([[1, 2], [3, 4]])
        for b in (Matrix([[1]]), Matrix([[1, 2]]), Matrix([[1], [2]]), Matrix([])):
            with pytest.raises(ValueError, match="dimension mismatch"):
                a + b
            with pytest.raises(ValueError, match="dimension mismatch"):
                a - b
            with pytest.raises(ValueError, match="dimension mismatch"):
                b - a


# integer matrices, often with zero entries, so that swaps, zero rows and
# singular matrices come up
_INT_SQUARES = st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-30, 30), st.integers(-(1 << 70), 1 << 70)),
             min_size=n, max_size=n), min_size=n, max_size=n))


class TestMergedElimination:
    """`_bareiss_int_det` on `_fraction_free` against its own loop before."""

    @settings(max_examples=300, deadline=None)
    @given(_INT_SQUARES)
    def test_against_parent_loop(self, rows):
        before = [list(r) for r in rows]
        assert _bareiss_int_det(rows) == parent_bareiss_int_det(rows)
        assert rows == before

    def test_signs_empty_and_zero_rows(self):
        for rows in ([[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                     [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[0, 2], [3, 5]], [[0, -1], [-1, 0]]):
            want = parent_bareiss_int_det(rows)
            assert _bareiss_int_det(rows) == want
            assert want == int(sympy.Matrix(rows).det())
        assert _bareiss_int_det([]) == parent_bareiss_int_det([]) == 1
        assert _bareiss_int_det([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
        assert _bareiss_int_det([[0, 1], [0, 2]]) == 0
        rows = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
        assert _fraction_free([list(r) for r in rows], 3, False)[2] == -1
        assert _bareiss_int_det(rows) == parent_bareiss_int_det(rows) == -3


@st.composite
def _block_triangular(draw, max_n=6):
    """A matrix that is block lower triangular after a hidden permutation:
    diagonal blocks of 1 to 3 rows (often a 1x1 block with a zero
    diagonal), random entries below them, zeros above, then the rows and
    columns permuted together."""
    sizes = []
    while sum(sizes) < max_n and (not sizes or draw(st.booleans())):
        sizes.append(draw(st.integers(1, min(3, max_n - sum(sizes)))))
    n = sum(sizes)
    rows = [[F(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(start + size):
                rows[i][j] = draw(_ENTRIES)
        if size == 1 and draw(st.booleans()):
            rows[start][start] = F(0)
        start += size
    perm = draw(st.permutations(range(n)))
    return Matrix([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


@st.composite
def _pairings(draw, max_n=6):
    """Delta-like matrices: each index paired with at most one other, a
    nonzero entry (either sign, mixed denominators) at (e, f) and (f, e)
    for each pair, and nothing else."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(n)))
    rows = [[F(0)] * n for _ in range(n)]
    nonzero = _ENTRIES.filter(bool)
    for k in range(draw(st.integers(0, n // 2))):
        e, f = order[2 * k], order[2 * k + 1]
        rows[e][f], rows[f][e] = draw(nonzero), draw(nonzero)
    return Matrix(rows)


class TestBlockCharPoly:
    """`Matrix.char_poly` as a product over the strongly connected blocks of
    the nonzero pattern, against the unsplit Berkowitz and sympy."""

    def check(self, a: Matrix):
        got = a.char_poly()
        assert type(got) is Polynomial
        assert got == Polynomial(unsplit_char_poly(a))
        if a.nrows:
            assert got == Polynomial(sympy_char_poly(a))
        return list(got.coeffs)

    @settings(max_examples=200, deadline=None)
    @given(_block_triangular())
    def test_permuted_block_triangular(self, a):
        self.check(a)

    @settings(max_examples=100, deadline=None)
    @given(_pairings())
    def test_pairings(self, a):
        got = self.check(a)
        # t^(unpaired) times t^2 - x y for each pair
        want = Polynomial([1])
        for e in range(a.nrows):
            f = next((j for j in range(a.nrows) if a[e, j]), None)
            if f is None:
                want = want * Polynomial([0, 1])
            elif e < f:
                want = want * Polynomial([-a[e, f] * a[f, e], 0, 1])
        assert Polynomial(got) == want

    @settings(max_examples=60, deadline=None)
    @given(_squares(max_n=6))
    def test_mixed_denominators_and_negative_entries(self, a):
        self.check(a)

    def test_empty(self):
        assert self.check(Matrix([])) == unsplit_char_poly(Matrix([])) == [1]

    def test_blocks_are_what_berkowitz_sees(self, monkeypatch):
        # a 2-cycle, a 3-cycle below it and two zero-diagonal singletons,
        # permuted: Berkowitz runs on the 2x2 and the 3x3 block only
        rows = [[0, F(-3, 2), 0, 0, 0, 0, 0],
                [F(5, 7), 1, 0, 0, 0, 0, 0],
                [2, 0, 0, -1, 0, 0, 0],
                [0, 0, 0, 0, 4, 0, 0],
                [0, F(1, 3), 7, 0, 2, 0, 0],
                [1, 0, 0, 9, 0, 0, 0],
                [0, 0, 0, 0, 3, -2, 0]]
        perm = [4, 6, 1, 3, 0, 5, 2]
        a = Matrix([[rows[perm[i]][perm[j]] for j in range(7)] for i in range(7)])
        sizes = []
        berkowitz = exact_mod._berkowitz
        monkeypatch.setattr(exact_mod, "_berkowitz",
                            lambda rows: sizes.append(len(rows)) or berkowitz(rows))
        got = self.check(a)
        assert sorted(sizes) == [2, 3]
        assert got[:3] == [0, 0, F(15, 14) * 28]  # t^2 times the blocks' constants

    def test_one_block_is_not_copied(self, monkeypatch):
        a = build_edge_space(directed_cycle(5)).hashimoto
        seen = []
        berkowitz = exact_mod._berkowitz
        monkeypatch.setattr(exact_mod, "_berkowitz",
                            lambda rows: seen.append(rows) or berkowitz(rows))
        self.check(a)
        assert len(seen) == 1 and seen[0] is a.ints


class TestTarjan:
    """The package's one SCC routine."""

    def test_against_reachability(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(0, 9)
            out = [[j for j in range(n) if rng.random() < 0.2] for _ in range(n)]
            reach = [{i} for i in range(n)]
            for _ in range(n):
                for i in range(n):
                    for j in list(reach[i]):
                        reach[i].update(out[j])
            got = _tarjan_sccs(n, out)
            assert sorted(v for comp in got for v in comp) == list(range(n))
            for comp in got:
                assert comp == sorted(comp)
                assert all(reach[u] >= set(comp) for u in comp)
            # reverse topological: a component reaches only earlier ones
            position = {v: k for k, comp in enumerate(got) for v in comp}
            for u in range(n):
                assert all(position[v] <= position[u] for v in reach[u])


class TestVertexPlan:
    """The weighted-Ihara sample check on the graph's strongly connected
    blocks, on one-way digraphs with several of them."""

    @staticmethod
    def graphs():
        rng = random.Random(20261019)
        found = []
        while len(found) < 8:
            weighted = len(found) % 2 == 1
            g = random_connected_graph(rng, rng.randint(5, 9), rng.randint(0, 3),
                                       oneway=0.6, weighted=weighted)
            if len(build_edge_space(g).vertex_plan.blocks) >= 3:
                found.append(g)
        return found

    def test_block_product_is_the_whole_determinant(self):
        sizes = set()
        for g in self.graphs():
            es, _, g_poly, rhs, count = sample_inputs(g)
            plan = es.vertex_plan
            sizes.update(len(b) for b in plan.blocks)
            points, skipped = sample_points(g_poly, rhs, count)
            ps = [t.numerator for t in points + skipped]
            ss = [t.denominator * plan.ell for t in points + skipped]
            assert plan.dets(ps, ss) == [_bareiss_int_det(plan.rows(p, s)[0])
                                         for p, s in zip(ps, ss)], g.edges
        assert 1 in sizes and max(sizes) >= 3

    def test_point_counts_across_groups(self):
        # the points go to the blocks' eliminations a group at a time
        for g in self.graphs()[:3]:
            es, step, g_poly, rhs, _ = sample_inputs(g)
            for count in (1, _POINT_GROUP - 1, _POINT_GROUP, _POINT_GROUP + 1,
                          2 * _POINT_GROUP + 5):
                assert all_routes(es, step, g_poly, rhs, count) == (True, count)

    def test_rows_keep_to_the_arcs(self):
        for g in self.graphs():
            es = build_edge_space(g)
            arcs = g.edge_set()
            y = es.vertex_plan.rows(-3, 2 * es.vertex_plan.ell)[0]
            assert all(y[u][v] == 0 for u in range(g.n) for v in range(g.n)
                       if u != v and (u, v) not in arcs)

    def test_perturbed_sides_fail_where_they_differ(self):
        for g in self.graphs():
            es, step, g_poly, rhs, count = sample_inputs(g)
            assert all_routes(es, step, g_poly, rhs, count) == (True, count)
            t0, t1 = sample_points(g_poly, rhs, count)[0][:2]
            # a wrong g goes unseen where it agrees with g; this one agrees
            # with g at t0
            for bad_g in (g_poly * Polynomial([2]),
                          g_poly + Polynomial([-t0, 1]) * Polynomial([F(1, 3)])):
                points = sample_points(bad_g, rhs, count)[0]
                first = next(k for k, t in enumerate(points) if bad_g(t) != g_poly(t))
                assert _vertex_sample_check(es, bad_g, rhs, count) == (False, first)
            # bad_rhs agrees with rhs at t0 and t1 only, and is checked
            # where rhs(t) = 0 but bad_rhs(t) != 0
            bad_rhs = rhs + Polynomial([-t0, 1]) * Polynomial([-t1, 1])
            points = sample_points(g_poly, bad_rhs, count)[0]
            first = next(k for k, t in enumerate(points) if bad_rhs(t) != rhs(t))
            assert first == 2 or rhs(points[first]) == 0
            assert all_routes(es, step, g_poly, bad_rhs, count) == (False, first)


def planned(rows):
    """The rows in the order of their own `_elimination_plan`."""
    order = _elimination_plan(len(rows), [[j for j, x in enumerate(row) if x] for row in rows])
    return [[rows[i][j] for j in order] for i in order]


@st.composite
def _patterned(draw, max_n=8):
    """Integer rows on a random pattern, symmetric or one-way, whose
    entries are often 0 anyway; rows often share a factor, and a diagonal
    entry is often 0."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from((0.15, 0.3, 0.6, 1.0)))
    symmetric = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    pattern = [[j for j in range(n) if j != i and rng.random() < density] for i in range(n)]
    if symmetric:
        for i in range(n):
            pattern[i] = sorted(set(pattern[i]) | {j for j in range(n) if i in pattern[j]})
    entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(1 << 40), 1 << 40))
    rows = []
    for i in range(n):
        factor = draw(st.sampled_from((1, 1, 2, -3, 6 ** 5)))
        row = [0] * n
        for j in pattern[i] + [i]:
            row[j] = factor * draw(entries)
        rows.append(row)
    return rows


class TestPlannedDet:
    """`_bareiss_int_det` on rows in the order of their `_elimination_plan`
    against the determinant loop before it and sympy."""

    def check(self, rows):
        before = [list(r) for r in rows]
        got = _bareiss_int_det(rows)
        assert rows == before
        assert type(got) is int
        assert got == parent_bareiss_int_det(rows)
        return got

    @settings(max_examples=300, deadline=None)
    @given(_patterned())
    def test_random_patterns(self, rows):
        got = self.check(planned(rows))
        assert got == (sympy.Matrix(rows).det() if rows else 1)

    def test_minimum_degree_order(self):
        # an arrow: vertex 0 sees every other, which see only 0; the leaves
        # go first (0 and the last leaf tie at the end)
        n = 6
        arrow = [list(range(1, n))] + [[0] for _ in range(1, n)]
        assert _elimination_plan(n, arrow) == [1, 2, 3, 4, 0, 5]
        # a path 3 - 0 - 2 - 1: an end first, ties by index, then the new end
        assert _elimination_plan(4, [[2], [], [1], [0]]) == [1, 2, 0, 3]
        # a 4-cycle: eliminating 0 joins 1 and 3
        assert _elimination_plan(4, [[1], [2], [3], [0]]) == [0, 1, 2, 3]
        assert _elimination_plan(0, []) == []

    def test_zero_diagonal_in_plan_order_swaps(self):
        # a zero first pivot; a pivot that turns 0 at step 2 (1 * 1 - 1 * 1);
        # the same after rows were divided by their contents 2 and 3; and a
        # lazy row, untouched at step 0, swapped in and rescaled by p_0 = 2
        for rows in ([[0, 2, 3], [4, 5, 6], [7, 8, 10]], [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
                     [[2, 4, 6], [3, 6, 9 + 3], [5, 1, 1]],
                     [[2, 1, 0, 0], [2, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 3]]):
            assert _fraction_free([list(r) for r in rows], len(rows), False)[2] == -1
            assert self.check(rows) == int(sympy.Matrix(rows).det())
        assert self.check([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3

    def test_lazy_rows_and_contents(self):
        # row 2 has a 0 in columns 0 and 1, so it is only updated at step 2
        # after both pivots went past it; the rows have contents 2, 3 and 5
        rows = [[2, 4, 0, 6], [3, 9, 0, 6], [0, 0, 5, 10], [2, 6, 4, 8]]
        assert self.check(rows) == int(sympy.Matrix(rows).det())

    def test_singular_and_zero_rows(self):
        assert self.check([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
        assert self.check([[2, 4, 6], [1, 2, 3], [7, -1, 5]]) == 0
        assert self.check([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
        assert self.check([[0, 0], [0, 0]]) == 0
        assert self.check([]) == 1
        assert self.check([[-12]]) == -12
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 7)
            base = [[rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(n)]
                    for _ in range(n - 1)]
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            base.insert(rng.randrange(n), [a * x + b * y for x, y in zip(base[0], base[-1])])
            assert self.check(planned(base)) == 0

    def test_pattern_entries_that_are_zero(self):
        # the plan is made for a denser pattern than the values have
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(1, 7)
            order = _elimination_plan(n, [list(range(n)) for _ in range(n)])
            rows = [[rng.randint(-5, 5) if rng.random() < 0.4 else 0 for _ in range(n)]
                    for _ in range(n)]
            self.check([[rows[i][j] for j in order] for i in order])


@st.composite
def _sparse_rows(draw, min_n=0, max_n=9, square=True):
    """Integer rows on the patterns where rows stay lazy for many steps:
    an arrow (a hub row and column, else only the diagonal), 2x2
    reciprocal blocks as in I + tau t Delta, or random; rows and columns
    then permuted, independently or together, so that diagonal entries in
    the order given are often 0.  Some rows are zero or tuples."""
    nrows = draw(st.integers(min_n, max_n))
    ncols = nrows if square else draw(st.integers(min_n, max_n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("arrow", "pairs", "random")))
    k = max(nrows, ncols)
    if kind == "arrow":
        hub = rng.randrange(k) if k else 0
        pattern = [{i, hub} if i != hub else set(range(k)) for i in range(k)]
    elif kind == "pairs":
        perm = list(range(k))
        rng.shuffle(perm)
        mate = {}
        for a, b in zip(perm[::2], perm[1::2]):
            mate[a], mate[b] = b, a
        pattern = [{i, mate.get(i, i)} for i in range(k)]
    else:
        density = rng.choice((0.1, 0.25, 0.5))
        pattern = [{i} | {j for j in range(k) if rng.random() < density} for i in range(k)]
    big = draw(st.booleans())
    rows = []
    for i in range(nrows):
        row = [0] * ncols
        if rng.random() > 0.1:
            for j in pattern[i]:
                if j < ncols:
                    row[j] = rng.randint(-(1 << 60), 1 << 60) if big else rng.randint(-4, 4)
        rows.append(row)
    cols = list(range(ncols))
    rng.shuffle(cols)
    order = list(range(nrows))
    if square and draw(st.booleans()):
        order = cols[:]
    else:
        rng.shuffle(order)
    return [tuple(rows[i][j] for j in cols) if rng.random() < 0.3 else
            [rows[i][j] for j in cols] for i in order]


class TestLazyElimination:
    """`_fraction_free`, the one integer elimination, in each of its three
    uses, on sparse patterns where rows stay lazy for many steps: forward
    for a determinant, forward for the rank, and Gauss-Jordan for a solve,
    against the Fraction routes and the determinant loop before it, and
    sympy."""

    @settings(max_examples=300, deadline=None)
    @given(_sparse_rows())
    def test_determinant(self, rows):
        before = [(type(r), list(r)) for r in rows]
        got = _bareiss_int_det(rows)
        assert [(type(r), list(r)) for r in rows] == before
        assert got == parent_bareiss_int_det(rows)
        assert got == (sympy.Matrix(rows).det() if rows else 1)

    @settings(max_examples=200, deadline=None)
    @given(_sparse_rows(square=False))
    def test_rank(self, rows):
        ncols = len(rows[0]) if rows else 0
        a = Matrix(rows, 1, ncols)
        got = a.rank()
        assert got == fraction_rank(a)
        assert got == (sympy.Matrix(rows).rank() if rows and ncols else 0)

    @settings(max_examples=200, deadline=None)
    @given(_sparse_rows(min_n=1), st.integers(0, 3), st.integers(0, 2**32))
    def test_solve(self, rows, width, seed):
        rng = random.Random(seed)
        n = len(rows)
        a = Matrix(rows, 1, n)
        rhs = Matrix([[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(width)]
                      for _ in range(n)], ncols=width)
        got = a.solve(rhs)
        assert got == fraction_solve(a, rhs)
        det = parent_bareiss_int_det(rows)
        if det == 0:
            assert got is None
        else:
            assert a * got == rhs
        # [A | I]: the last pivot is det A times the sign, the right-hand
        # block p A^-1
        work = [tuple(row) + tuple(int(i == j) for j in range(n)) for i, row in enumerate(rows)]
        rank, pivot, sign = _fraction_free(work, n, True)
        if det == 0:
            assert rank < n
        else:
            assert rank == n and pivot == sign * det
            assert a * Matrix(work, 1, n) == Matrix.identity(n).scale(pivot)


@st.composite
def _families(draw):
    """(rows, count, matrices): ``count`` integer matrices of one random
    nonzero pattern, and the same as rows for `_batched_dets`, often in the
    pattern's plan order.  At some points a planned pivot vanishes (a
    leading row block is 0), a row is 0, a column is 0 or two rows of one
    pattern are equal; entries are often 0 anyway, the diagonal is not
    always in the pattern, and some value lists are shared."""
    n = draw(st.integers(0, 8))
    count = draw(st.one_of(st.just(1), st.integers(1, 2 * _POINT_GROUP + 6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = rng.choice((0.15, 0.3, 0.6, 1.0))
    pattern = [[(i == j and rng.random() < 0.9) or rng.random() < density for j in range(n)]
               for i in range(n)]
    twins = rng.sample(range(n), 2) if n >= 2 and rng.random() < 0.3 else None
    if twins:
        pattern[twins[1]] = pattern[twins[0]][:]
    big = draw(st.booleans())
    mats = []
    for _ in range(count):
        m = [[(rng.randint(-(1 << 64), 1 << 64) if big else rng.randint(-2, 2))
              if pattern[i][j] else 0 for j in range(n)] for i in range(n)]
        kind = rng.random()
        if n and kind < 0.15:
            j = rng.randrange(n)
            m[j][:j + 1] = [0] * (j + 1)
        elif n and kind < 0.25:
            m[rng.randrange(n)] = [0] * n
        elif n and kind < 0.35:
            j = rng.randrange(n)
            for row in m:
                row[j] = 0
        elif twins and kind < 0.5:
            m[twins[1]] = m[twins[0]][:]
        mats.append(m)
    if draw(st.booleans()):
        order = _elimination_plan(n, [[j for j in range(n) if pattern[i][j]] for i in range(n)])
        pattern = [[pattern[i][j] for j in order] for i in order]
        mats = [[[m[i][j] for j in order] for i in order] for m in mats]
    shared = {}
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            values = [m[i][j] for m in mats]
            row.append(shared.setdefault(tuple(values), values) if pattern[i][j] else None)
        rows.append(row)
    return rows, count, mats


class TestBatchedDets:
    """`_batched_dets`, point by point against `_bareiss_int_det`."""

    @settings(max_examples=400, deadline=None)
    @given(_families())
    def test_each_point_is_bareiss(self, family):
        rows, count, mats = family
        before = [[None if e is None else list(e) for e in row] for row in rows]
        assert _batched_dets(rows, count) == [_bareiss_int_det(m) for m in mats]
        assert rows == before

    def test_only_vanishing_pivots_are_recomputed(self, monkeypatch):
        rng = random.Random(2028)
        bareiss_int_det = exact_mod._bareiss_int_det
        alone = []

        def counted(rows):
            alone.append([list(r) for r in rows])
            return bareiss_int_det(rows)

        monkeypatch.setattr(exact_mod, "_bareiss_int_det", counted)
        recomputed = 0
        for _ in range(200):
            n, count = rng.randint(1, 6), rng.randint(1, 40)
            mats = [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
                    for _ in range(count)]
            alone.clear()
            got = _batched_dets([[[m[i][j] for m in mats] for j in range(n)] for i in range(n)],
                                count)
            assert got == [bareiss_int_det(m) for m in mats]
            # a leading principal minor of a point is 0 exactly where one
            # of its planned pivots is
            vanishing = [m for m in mats
                         if any(bareiss_int_det([r[:k] for r in m[:k]]) == 0
                                for k in range(1, n + 1))]
            assert alone == vanishing
            recomputed += len(vanishing)
        assert recomputed > 100

    def test_small_cases(self):
        assert _batched_dets([], 3) == [1, 1, 1]
        # a planned pivot 0 at the first point, a structural 0 on the
        # diagonal, and a row with no entry
        assert _batched_dets([[[0, 1], [1, 1]], [[1, 1], [0, 2]]], 2) == [-1, 1]
        assert _batched_dets([[None, [1, 2]], [[1, 3], None]], 2) == [-1, -6]
        assert _batched_dets([[[1, 2], [3, 4]], [None, None]], 2) == [0, 0]
        # a row 0 at one point only, and contents that are not 1
        assert _batched_dets([[[2, 0], [4, 0]], [[6, 5], [3, 7]]], 2) == [-18, 0]


class TestPlannedCertificates:
    """A block determinant off by one at a single sample point fails the
    weighted-Ihara certificate, and the check names that point."""

    @staticmethod
    def off_by_one(monkeypatch, module, at):
        """Make the module's `_batched_dets` add 1 to the value at position
        ``at`` of all the values it returns, in call order; returns the
        list of the calls' point counts."""
        batched_dets = exact_mod._batched_dets
        counts = []

        def wrong(rows, count):
            values = batched_dets(rows, count)
            k = at - sum(counts)
            counts.append(count)
            return [x + (i == k) for i, x in enumerate(values)]

        monkeypatch.setattr(module, "_batched_dets", wrong)
        return counts

    def test_weighted_ihara_fails(self, monkeypatch):
        # det(Y) is the product of the block determinants, so a change in
        # one block would go unseen where another is 0; the check skips the
        # points where rhs(t) = 0, so no block is 0 at a checked point.  The
        # first TestVertexPlan graph is a unit graph with blocks of 2, 2 and
        # 3 vertices, all three 0 at t = 1 and -1; TestVertexPlan graphs
        # have more points than one group holds.
        found = TestVertexPlan.graphs()
        groups = set()
        for g in (example1(), weighted_3cycle(), found[0], found[1], found[3]):
            es = build_edge_space(g)
            count = 2 * (g.n + es.m) + 1
            blocks = len(es.vertex_plan.inner)
            calls = self.off_by_one(monkeypatch, edgespace_mod, -1)
            assert verify_weighted_ihara(g).equal
            # each group of points is one call per block, the blocks in turn
            assert sum(calls) == blocks * count
            point, lo = [], 0
            for c, size in enumerate(calls):
                assert size == min(_POINT_GROUP, count - lo)
                point.extend(range(lo, lo + size))
                if c % blocks == blocks - 1:
                    lo += size
            groups.add(len(calls) // blocks)
            for at in range(len(point)):
                calls = self.off_by_one(monkeypatch, edgespace_mod, at)
                cert = verify_weighted_ihara(g)
                assert not cert.equal, (g.edges, at)
                assert cert.details == {"sample_points": point[at],
                                        "samples_consistent": False}, (g.edges, at)
                # no group after the failing point's is eliminated
                assert len(calls) == blocks * (point[at] // _POINT_GROUP + 1)
        assert 1 in groups and max(groups) >= 2
