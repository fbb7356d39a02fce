import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbwalks import (
    Matrix,
    Polynomial,
    build_edge_space,
    build_graph,
    build_unweighted,
    perron_radius,
    v_similar,
)
from nbwalks.convergence import radius_btdw, radius_unweighted, radius_weighted
from nbwalks.errors import NegativeEntryError
from nbwalks.exact import _clear_denominators, _nonzero_rows, _tarjan_sccs
from nbwalks.spectral import (
    _FLOOR,
    _balancing_exponents,
    _float_power_vector,
    _float_rows,
    _left_sum,
    _limit,
    _start_vector,
)

from helpers import (
    bowtie,
    complete_undirected,
    digraphs,
    directed_cycle,
    downweighted_transfer,
    example1,
    random_digraph,
    two_squares,
    undirected_cycle,
    undirected_path,
    weighted_3cycle,
)

TOL = F(1, 10**12)


class TestNilpotency:
    def test_tree_hashimoto(self):
        es = build_edge_space(undirected_path(4))
        assert perron_radius(es.hashimoto).nilpotent

    def test_cycle_hashimoto(self):
        es = build_edge_space(directed_cycle(3))
        assert not perron_radius(es.hashimoto).nilpotent

    def test_zero_matrix(self):
        assert perron_radius(Matrix.zeros(3, 3)).nilpotent

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            perron_radius(Matrix([[0, -1], [0, 0]]))


class TestPerronRadius:
    def test_cycle_hashimoto_is_one(self):
        for length in (3, 4, 5):
            es = build_edge_space(undirected_cycle(length))
            pr = perron_radius(es.hashimoto)
            assert pr.lower <= 1 <= pr.upper
            assert pr.width <= TOL

    def test_k4_is_two(self):
        pr = perron_radius(build_edge_space(complete_undirected(4)).hashimoto)
        assert pr.lower <= 2 <= pr.upper
        assert pr.width <= TOL * 2
        # cross-check: 2 is a root of the characteristic polynomial
        cp = build_edge_space(complete_undirected(4)).hashimoto.char_poly()
        assert cp(2) == 0

    def test_weighted_cycle_cube_root(self):
        es = build_edge_space(weighted_3cycle())
        pr = perron_radius(v_similar(es))
        assert pr.lower**3 <= 30 <= pr.upper**3
        assert pr.width <= TOL * pr.upper

    def test_nilpotent_exact_zero(self):
        pr = perron_radius(build_edge_space(undirected_path(3)).hashimoto)
        assert pr.nilpotent and pr.lower == 0 == pr.upper

    def test_self_loop_block(self):
        pr = perron_radius(Matrix([[F(3, 2), 1], [0, F(1, 3)]]))
        assert pr.lower == pr.upper == F(3, 2)

    def test_reducible_takes_block_maximum(self):
        # two cyclic blocks with different weights, upper triangular coupling
        m = Matrix(
            [
                [0, 2, 0, 0, 1],
                [2, 0, 0, 0, 0],
                [0, 0, 0, 3, 0],
                [0, 0, 3, 0, 0],
                [0, 0, 0, 0, 0],
            ]
        )
        pr = perron_radius(m)
        assert pr.lower <= 3 <= pr.upper and pr.upper < F(31, 10)

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            perron_radius(Matrix([[-1]]))

    def test_iteration_budget(self):
        from nbwalks.errors import IterationBudgetExceededError

        es = build_edge_space(weighted_3cycle())
        with pytest.raises(IterationBudgetExceededError):
            perron_radius(v_similar(es), tol=F(1, 10**40), budget=0)

    @pytest.mark.parametrize("tol", [0, F(-1, 10**12), -1.0])
    def test_nonpositive_tol_rejected(self, tol):
        # no bracket of an irrational radius closes at width 0, so the
        # iteration would run out its whole budget
        m = Matrix([[0, 1, 1], [1, 0, 1], [1, 1, 1]])
        with pytest.raises(ValueError, match="tol"):
            perron_radius(m, tol=tol)

    def test_empty_matrix(self):
        pr = perron_radius(Matrix([]))
        assert pr.nilpotent and pr.lower == 0

    def test_against_numpy_eigenvalues(self):
        import numpy as np

        rng = random.Random(303)
        for _ in range(15):
            n = rng.randint(2, 7)
            rows = [
                [
                    F(rng.randint(0, 4), rng.randint(1, 3)) if rng.random() < 0.5 else F(0)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            m = Matrix(rows)
            pr = perron_radius(m)
            numeric = max(abs(z) for z in np.linalg.eigvals(np.array(m.to_float())))
            if pr.nilpotent:
                assert numeric < 1e-8
            else:
                assert float(pr.lower) - 1e-8 <= numeric <= float(pr.upper) + 1e-8


class TestExtremeEntries:
    """Entries a float cannot hold: the start vector comes from a block
    balanced by powers of two, and the bracket stays exact."""

    @pytest.mark.parametrize("corner", [F(10**400), F(1, 10**400)])
    def test_cycle_with_one_extreme_entry(self, corner):
        m = Matrix([[0, 1, 0], [0, 0, 1], [corner, 0, 0]])
        pr = perron_radius(m)
        assert pr.lower**3 <= corner <= pr.upper**3
        assert pr.width <= TOL * pr.upper

    def test_huge_and_tiny_in_one_cycle(self):
        m = Matrix([[0, 10**400, 0], [0, 0, 1], [F(1, 10**400), 0, 0]])
        pr = perron_radius(m)
        assert pr.lower <= 1 <= pr.upper and pr.width <= TOL

    @pytest.mark.parametrize("factor", [F(10**400), F(1, 10**400)])
    def test_scaled_weights_scale_the_radius(self, factor):
        rng = random.Random(41)
        for _ in range(4):
            g = random_digraph(rng, rng.randint(4, 6), 0.6, weighted=True)
            step = v_similar(build_edge_space(g))
            plain = perron_radius(step)
            if plain.nilpotent:
                continue
            scaled = perron_radius(step.scale(factor))
            assert scaled.lower / factor <= plain.upper
            assert plain.lower <= scaled.upper / factor
            assert scaled.width <= TOL * scaled.upper

    def test_float_range_blocks_take_the_balanced_path(self):
        assert _float_rows(*integer_rows([[F(0), F(1)], [F(2), F(0)]])) == [
            ([1], [1.0]), ([0], [2.0])]
        assert _float_rows(*integer_rows([[F(0), F(10**400)], [F(1), F(0)]])) is None
        assert _float_rows(*integer_rows([[F(0), F(1, 10**400)], [F(1), F(0)]])) is None

    @pytest.mark.parametrize("k", [6, 12, 20, 100, 300])
    def test_root_far_from_one_within_float_range(self, k):
        # the float step's shift by the identity is negligible against the
        # root 10**(k/3), so the float vector of the block itself is poor;
        # the balanced block's vector closes the bracket with no exact step
        corner = 10**k
        pr = perron_radius(Matrix([[0, 1, 0], [0, 0, 1], [corner, 0, 0]]), budget=5)
        assert pr.iterations == 0
        assert pr.lower**3 <= corner <= pr.upper**3
        assert pr.width <= TOL * pr.upper

    @pytest.mark.parametrize("k, iterations", [(2000, 44), (3000, 56)])
    def test_rounded_balancing_scale_iterates_briefly(self, k, iterations):
        # the balancing scale 2**s misses the root by a factor of about 2**11
        # here; exact steps shifted by the upper bound still converge fast
        corner = 10**k
        pr = perron_radius(Matrix([[0, 1, 0], [0, 0, 1], [corner, 0, 0]]), budget=100)
        assert pr.iterations == iterations
        assert pr.lower**3 <= corner <= pr.upper**3
        assert pr.width <= TOL * pr.upper


def reference_power_vector(fm, iterations=400):
    """All dense float power steps (the start vector before the sparse loop
    that stops at a repeat); also returns (j, p) for the first iterate that
    repeats iterate j, after p steps, or None.  Each row sum adds left to
    right, as the package does on every Python version (``sum``
    compensates since 3.12)."""
    n = len(fm)
    x = [1.0] * n
    seen = {tuple(x): 0}
    repeat = None
    for step in range(1, iterations + 1):
        y = []
        for i in range(n):
            acc = 0.0
            for k in range(n):
                acc += fm[i][k] * x[k]
            y.append(acc + x[i])
        top = max(y)
        if top == 0:
            return [1.0] * n, repeat
        y = [v / top for v in y]
        if repeat is None:
            j = seen.setdefault(tuple(y), step)
            if j != step:
                repeat = (j, step - j)
        x = y
    return x, repeat


def integer_rows(block):
    """A dense Fraction block as sparse integer rows over one denominator."""
    m = Matrix(block)
    return [([k for k, b in enumerate(row) if b], [b for b in row if b])
            for row in m.ints], m.den


def sparse_floats(fm):
    return [([k for k, f in enumerate(row) if f], [f for f in row if f]) for row in fm]


def irreducible_blocks(m):
    for verts in _tarjan_sccs(m.nrows, [cols for cols, _ in _nonzero_rows(m.ints, m.ncols)]):
        if len(verts) > 1:
            yield [[m.data[i][j] for j in verts] for i in verts]


def hashimoto_blocks(seed, graphs=12):
    rng = random.Random(seed)
    for _ in range(graphs):
        g = random_digraph(rng, rng.randint(4, 7), rng.choice([0.3, 0.5]),
                           weighted=rng.random() < 0.5)
        yield from irreducible_blocks(v_similar(build_edge_space(g)))


_FLOAT_ENTRIES = st.floats(1 / 64, 64)


@st.composite
def float_blocks(draw, lengths, entries):
    """A dense float block on 1 to 8 vertices whose rows have a drawn
    number of nonzeros, at drawn columns, each a drawn entry."""
    n = draw(st.integers(1, 8))
    fm = []
    for _ in range(n):
        k = min(draw(lengths), n)
        cols = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        row = [0.0] * n
        for c in cols:
            row[c] = draw(entries)
        fm.append(row)
    return fm


def cycling_blocks(max_n=16):
    """Seeded Hashimoto blocks on at most max_n edges whose float power
    iterates repeat with period 2 or more."""
    out = []
    for seed in (5, 7):
        for block in hashimoto_blocks(seed):
            fm = [[float(x) for x in row] for row in block]
            if len(fm) <= max_n and reference_power_vector(fm)[1][1] > 1:
                out.append(fm)
    return out


CYCLING_BLOCKS = cycling_blocks()


class TestFloatPowerVector:
    """The sparse loop that stops at its first repeated iterate returns the
    vector of all dense steps, bit for bit."""

    def check(self, fm, iterations=400):
        want, repeat = reference_power_vector(fm, iterations)
        got = _float_power_vector(sparse_floats(fm), iterations)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        return repeat

    def test_seeded_hashimoto_blocks(self):
        repeats = []
        for block in hashimoto_blocks(7):
            fm = [[float(x) for x in row] for row in block]
            # integer rows over one denominator give the Fractions' floats
            assert _float_rows(*integer_rows(block)) == sparse_floats(fm)
            repeats.append(self.check(fm))
        # both kinds occur: blocks that settle on a fixed point after many
        # steps and blocks that never do, entering a longer cycle instead
        assert any(p == 1 and j > 1 for j, p in repeats)
        assert any(p > 1 for _, p in repeats)

    def test_blocks_that_cycle(self):
        # iterates that enter a cycle of period 2 or more never reach a fixed
        # point; the loop stops at the first repeat and picks the iterate
        # the full run ends on, also where the run ends mid-period
        periods, offsets = set(), set()
        for block in hashimoto_blocks(5):
            fm = [[float(x) for x in row] for row in block]
            for iterations in (400, 401):
                repeat = self.check(fm, iterations)
                j, p = repeat
                if p > 1:
                    periods.add(p)
                    offsets.add((iterations - j) % p)
        assert {3, 4, 5} <= periods
        assert len(offsets) > 1

    def test_balanced_block(self):
        rng = random.Random(41)
        g = random_digraph(rng, 6, 0.6, weighted=True)
        step = v_similar(build_edge_space(g)).scale(F(10**400))
        checked = 0
        for block in irreducible_blocks(step):
            assert _float_rows(*integer_rows(block)) is None
            s, d = _balancing_exponents(*integer_rows(block))
            fm = [[float(x * F(2) ** (d[j] - d[i] - s)) for j, x in enumerate(row)]
                  for i, row in enumerate(block)]
            self.check(fm)
            checked += 1
        assert checked

    @settings(max_examples=40, deadline=None)
    @given(float_blocks(st.just(1), _FLOAT_ENTRIES))
    def test_one_entry_rows(self, fm):
        self.check_both(fm)

    @settings(max_examples=40, deadline=None)
    @given(float_blocks(st.integers(1, 8), st.just(1.0)))
    def test_all_one_rows(self, fm):
        self.check_both(fm)

    @settings(max_examples=40, deadline=None)
    @given(float_blocks(st.integers(0, 8), _FLOAT_ENTRIES))
    def test_mixed_row_lengths(self, fm):
        # rows of every length from none to full, so the column passes
        # cover a shrinking prefix of the rows sorted longest first
        self.check_both(fm)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(CYCLING_BLOCKS), st.randoms(use_true_random=False))
    def test_permuted_blocks_that_cycle(self, fm, rng):
        # seeded blocks whose iterates repeat with period 2 or more, with
        # their vertices renumbered; most renumberings still cycle
        perm = list(range(len(fm)))
        rng.shuffle(perm)
        self.check_both([[fm[i][j] for j in perm] for i in perm])

    def check_both(self, fm):
        for iterations in (400, 401):
            self.check(fm, iterations)

    def test_row_sums_past_float_range_are_balanced(self):
        # every entry is a float, but a power step would overflow to inf
        huge = F(10**308)
        assert _float_rows(*integer_rows([[huge, huge], [huge, huge]])) is None
        es = build_edge_space(complete_undirected(4))
        pr = perron_radius(es.hashimoto.scale(huge))
        assert pr.lower <= 2 * huge <= pr.upper
        assert pr.width <= TOL * pr.upper


_MAX_DEN = 10**15


def stdlib_limit(n, d):
    f = F(n, d).limit_denominator(_MAX_DEN)
    return f.numerator, f.denominator


def farey_neighbours(a, b):
    """a/b and its right neighbour r/s among the fractions with
    denominators at most 10**15, where r b - a s = 1: their midpoint lies
    at the same distance from both, so rationalizing it is a tie."""
    s = -pow(a, -1, b) % b
    s += (_MAX_DEN - s) // b * b
    return F(a, b), F((1 + a * s) // b, s)


class TestLimit:
    """`_limit` is ``Fraction.limit_denominator(10**15)`` in integers, on
    every Python version: 3.12 rewrote the stdlib's tie test, and both
    pick the convergent."""

    @settings(max_examples=300)
    @given(st.floats(0, 1, exclude_min=True))
    @example(1.0)
    def test_unit_interval(self, v):
        assert _limit(*v.as_integer_ratio()) == stdlib_limit(*v.as_integer_ratio())

    @settings(max_examples=200)
    @given(st.floats(0, 2.2250738585072014e-308, exclude_min=True))
    @example(5e-324)
    @example(2.225073858507201e-308)
    def test_subnormals(self, v):
        assert _limit(*v.as_integer_ratio()) == stdlib_limit(*v.as_integer_ratio()) == (0, 1)

    @settings(max_examples=200)
    @given(st.fractions(0, 1, max_denominator=_MAX_DEN) | st.integers(0, 2**49).map(
        lambda k: F(k, 2**49)))
    @example(F(1, _MAX_DEN))
    @example(F(_MAX_DEN - 1, _MAX_DEN))
    def test_short_denominators_are_kept(self, f):
        assert _limit(f.numerator, f.denominator) == (f.numerator, f.denominator)

    @settings(max_examples=200)
    @given(st.floats(0, 1 / (2 * _MAX_DEN), exclude_min=True, exclude_max=True))
    def test_tiny_floats_rationalize_to_zero(self, v):
        assert _limit(*v.as_integer_ratio()) == stdlib_limit(*v.as_integer_ratio()) == (0, 1)

    @settings(max_examples=200)
    @given(st.integers(2, _MAX_DEN).flatmap(
        lambda b: st.tuples(st.integers(1, b - 1).filter(lambda a: math.gcd(a, b) == 1),
                            st.just(b))))
    @example((1, 2 * _MAX_DEN // 3))
    def test_near_ties(self, pair):
        left, right = farey_neighbours(*pair)
        mid = (left + right) / 2
        got = _limit(mid.numerator, mid.denominator)
        assert got == stdlib_limit(mid.numerator, mid.denominator)
        assert F(*got) in (left, right)
        x = float(mid)
        for v in (x, math.nextafter(x, 0), math.nextafter(x, 1)):
            assert _limit(*v.as_integer_ratio()) == stdlib_limit(*v.as_integer_ratio())


def reference_start_vector(rows):
    """The start vector before the integer rationalizer: Fractions from
    ``limit_denominator``, clamped positive, over their least common
    denominator."""
    x = [F(v).limit_denominator(_MAX_DEN) for v in _float_power_vector(rows)]
    return _clear_denominators([v if v > 0 else _FLOOR for v in x])[0]


class TestStartVector:
    def test_seeded_hashimoto_blocks(self):
        for block in hashimoto_blocks(7):
            rows = _float_rows(*integer_rows(block))
            assert _start_vector(rows) == reference_start_vector(rows)

    @pytest.mark.parametrize("k", [6, 12, 20, 100, 300])
    def test_entries_that_rationalize_to_zero_are_clamped(self, k):
        # the cycle with corner 10**k: at k = 20 the float vector has an
        # entry below 1/(2 10**15), which rationalizes to 0
        rows = [([1], [1.0]), ([2], [1.0]), ([0], [float(10**k)])]
        got = _start_vector(rows)
        assert got == reference_start_vector(rows) and min(got) > 0


def test_float_sums_fold_left():
    # 1e16 + 1.0 rounds back to 1e16 when added left to right, so the fold
    # gives 0.0 where compensated summation (sum since 3.12, math.fsum)
    # gives 1.0; the start vector and the brackets depend on that rounding
    values = [1e16, 1.0, -1e16]
    assert _left_sum(values) == 0.0 != math.fsum(values)
    assert _left_sum(iter([])) == 0.0


class TestSpectralInvariants:
    def test_multicycle_pushes_radius_above_one(self):
        pr = perron_radius(build_edge_space(bowtie()).hashimoto)
        assert pr.lower > 1

    def test_single_cycle_spectrum_pattern(self):
        # undirected cycles: the edge matrix splits into two directed rings,
        # char poly (x**l - 1)**2 and radius exactly 1
        for length in (3, 4, 5):
            es = build_edge_space(undirected_cycle(length))
            cp = es.hashimoto.char_poly()
            ring = Polynomial([-1] + [0] * (length - 1) + [1])
            assert cp == ring * ring
            assert not perron_radius(es.hashimoto).nilpotent
        # one directed ring plus tails: x**a * (x**l - 1)
        es = build_edge_space(example1())
        cp = es.hashimoto.char_poly()
        assert cp == Polynomial([0, 0, -1, 0, 0, 1])  # x^2 (x^3 - 1)

    def test_similarity_invariance(self):
        es = build_edge_space(weighted_3cycle())
        left = perron_radius(es.weight_diag * es.hashimoto)
        right = perron_radius(es.hashimoto * es.weight_diag)
        assert max(left.lower, right.lower) <= min(left.upper, right.upper)

    def test_blend_monotonicity(self):
        rng = random.Random(55)
        for _ in range(10):
            g = random_digraph(rng, rng.randint(3, 6), rng.choice([0.4, 0.7]))
            es = build_edge_space(g)
            base = perron_radius(es.hashimoto)
            for tau in (F(1, 4), F(1, 2), F(3, 4)):
                blended = perron_radius(downweighted_transfer(es, tau))
                assert blended.upper >= base.lower


class TestTransferRowInput:
    """`perron_radius` on the sparse transfer rows returns the result it
    gives on the dense `Matrix` of the same entries."""

    TAUS = (F(0), F(1, 3), F(1, 2), F(1))

    def check(self, g, taus):
        es = build_edge_space(g)
        for tau in taus:
            rows = es.transfer_rows(tau)
            dense = downweighted_transfer(es, tau) * es.weight_diag
            assert perron_radius(rows) == perron_radius(dense), (g.edges, tau)

    @settings(max_examples=50, deadline=None)
    @given(g=digraphs(weighted=False))
    def test_unit_graphs(self, g):
        self.check(g, self.TAUS)

    @settings(max_examples=50, deadline=None)
    @given(g=digraphs(weighted=True))
    def test_weighted_graphs(self, g):
        self.check(g, (F(1),))

    def test_nilpotent(self):
        # trees and a directed path: B is nilpotent, T_tau is not below 1
        for g in (undirected_path(4), build_unweighted([(0, 1), (1, 2), (2, 3)])):
            es = build_edge_space(g)
            assert perron_radius(es.transfer_rows()).nilpotent
            self.check(g, self.TAUS)

    def test_reducible(self):
        # a directed cycle with a tail and a second cycle: blocks of
        # different radius, singletons between them
        g = build_unweighted([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)])
        self.check(g, self.TAUS)
        self.check(two_squares(), self.TAUS)

    def test_weighted(self):
        g = build_graph([(0, 1, F(7, 3)), (1, 2, F(1, 5)), (2, 0, 4), (1, 0, F(2, 9)),
                         (2, 3, 6), (3, 1, F(1, 2))])
        self.check(g, (F(1),))
        self.check(weighted_3cycle(), (F(1),))

    def test_extreme_weights_take_the_balanced_path(self):
        g = build_graph([(0, 1, F(10**400)), (1, 2, F(1, 10**400)), (2, 0, 3), (1, 0, 2)])
        self.check(g, (F(1),))

    @pytest.mark.parametrize("scale", [1, 3, 10**20])
    def test_any_common_denominator(self, scale):
        # rows not in lowest terms give the same bracket
        m = Matrix([[0, F(1, 2), 3], [F(2, 7), 0, 0], [1, F(5, 3), 0]])
        rows = [(cols, [scale * x for x in xs]) for cols, xs in _nonzero_rows(m.ints, m.ncols)]
        assert perron_radius((rows, scale * m.den)) == perron_radius(m)

    def test_negative_rows_rejected(self):
        with pytest.raises(NegativeEntryError):
            perron_radius(([([1], [1]), ([0], [-1])], 1))

    def test_radius_reports_build_no_edge_matrix(self):
        weighted = build_graph([(0, 1, F(1, 2)), (1, 2, 3), (2, 0, 1), (1, 0, 2), (2, 1, 1)])
        for g, report in ((bowtie(), radius_unweighted), (undirected_cycle(5), radius_unweighted),
                          (bowtie(), lambda g: radius_btdw(g, F(1, 2))),
                          (undirected_path(3), lambda g: radius_btdw(g, F(1, 3)))):
            report(g)
            assert not {"hashimoto", "weight_diag", "line_graph"} & set(vars(g.edge_space))
        # the weighted report still brackets the dense v_similar, whose
        # result the rows at tau = 1 give too
        for g in (weighted, bowtie()):
            assert radius_weighted(g).rho == perron_radius(g.edge_space.transfer_rows())
