"""Dense matrices over arbitrary-precision rationals.

Everything in here is exact.  A `Matrix` stores integer rows over one
positive common denominator, in lowest terms, so every kernel reads
integers directly and denominators are cleared once, when rationals enter
(`Matrix(rows)` on rational entries); `Matrix(rows, den)` takes integer
rows as they come out of a kernel.  The entries as `fractions.Fraction`s
are a read-only view, `data`, built on first read.

Products run sparse over the nonzeros of the left factor's rows, so the 0/1
edge-space matrices cost what their nonzeros cost; that inner loop is the
one product kernel `_int_product`, which the walk routes also call
directly on rows of (columns, entries), the sparse row format
`spectral.perron_radius` reads too.  A characteristic polynomial, a
`Polynomial`, is the product of those of the diagonal blocks that the
strongly connected components of the nonzero pattern (`_tarjan_sccs`, the
package's one SCC routine) cut the matrix into, each from Berkowitz's
division-free algorithm.  Every integer determinant, rank and solve of
one matrix runs one fraction-free elimination, `_fraction_free` (Bareiss 1968): forward
for a determinant or the rank, Gauss-Jordan for a solve, whose solution
is then the eliminated right-hand side over a single integer denominator.
Each step updates only the rows with an entry in the pivot column and
leaves the others to be rescaled lazily (Sylvester's identity), so a
sparse matrix costs what its fill costs.  The same elimination gives the
determinants over Z[t]: `polys.polymat_det` evaluates the polynomial
entries at one large power of two and reads the coefficients off the
integer determinant (Kronecker substitution).  The determinants sampled
at many points of one nonzero pattern, the weighted-Ihara and
`polymat_det` point checks, take their rows in a minimum-degree order
found once for the pattern (`_elimination_plan`), which keeps that fill
small, and run the same steps for a group of points at once
(`_batched_dets`), each entry the list of its values at the points; a
point whose planned pivot is 0 is recomputed alone by `_fraction_free`,
which swaps rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .errors import NotSquareError
from .zpoly import _zmul


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _rational(x):
    """x itself when it is an int or a Fraction, else Fraction(x)."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def _clear_denominators(values):
    """Integers sharing one denominator: returns (ints, lcm) with
    values[i] == ints[i] / lcm and lcm the least common denominator."""
    den = lcm(*[x.denominator for x in values])
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


def _lowest_terms(ints, den):
    """(ints, den) over a positive den with no factor common to den and all
    of ints; ints is a list of int sequences."""
    g = gcd(den, *(x for row in ints for x in row))
    if den < 0:
        g = -g
    if g == 1:
        return ints, den
    return [[x // g for x in row] for row in ints], den // g


def _rescaled(rows, s: int):
    return rows if s == 1 else [[s * x for x in row] for row in rows]


class Matrix:
    """Immutable rational matrix: integer rows ``ints`` over one positive
    denominator ``den``, in lowest terms, so that equal matrices have equal
    ``(ints, den)``.

    ``Matrix(rows)`` takes rational entries (anything `Fraction` accepts);
    ``Matrix(rows, den)`` takes integer rows standing for each entry / den.
    ``ncols`` gives the column count of a matrix with no rows; otherwise
    it is read off the rows.
    """

    __slots__ = ("ints", "den", "nrows", "ncols", "_data")

    def __init__(self, rows, den=None, ncols=None):
        rows = [tuple(row) for row in rows]
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if den is None:
            flat, den = _clear_denominators([_rational(x) for row in rows for x in row])
            rows = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]
        elif den != 1:
            rows, den = _lowest_terms(rows, den)
        self.ints = tuple(map(tuple, rows))
        self.den = den
        self.nrows = nrows
        self.ncols = ncols
        self._data = None

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions; equal entries share one Fraction."""
        if self._data is None:
            den = self.den
            values = {x: Fraction(x, den) for x in {x for row in self.ints for x in row}}
            self._data = tuple(tuple([values[x] for x in row]) for row in self.ints)
        return self._data

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[0] * ncols for _ in range(nrows)], 1, ncols)

    @staticmethod
    def diagonal(entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.ints[i][j], self.den)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ncols == other.ncols
                and self.den == other.den and self.ints == other.ints)

    def __hash__(self):
        return hash((self.ints, self.den, self.ncols))

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.data]})"

    def _aligned(self, other: "Matrix"):
        """Both integer rows over the common denominator, and that denominator."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("dimension mismatch")
        den = lcm(self.den, other.den)
        return _rescaled(self.ints, den // self.den), _rescaled(other.ints, den // other.den), den

    def __add__(self, other: "Matrix") -> "Matrix":
        a, b, den = self._aligned(other)
        return Matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], den, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        a, b, den = self._aligned(other)
        return Matrix([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], den, self.ncols)

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self.ints], self.den, self.ncols)

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        if c == 1:  # immutable, so the plain (tau = 1) cases pay nothing
            return self
        return Matrix(_rescaled(self.ints, c.numerator), self.den * c.denominator, self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        return Matrix(_int_product(_nonzero_rows(self.ints, self.ncols), other.ints, other.ncols),
                      self.den * other.den, other.ncols)

    def __rmul__(self, c):
        return self.scale(c)

    def transpose(self) -> "Matrix":
        cols = list(zip(*self.ints)) if self.ints else [()] * self.ncols
        return Matrix(cols, self.den, self.nrows)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.ints)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def abs_sum(self) -> Fraction:
        return Fraction(sum(abs(x) for row in self.ints for x in row), self.den)

    def to_float(self):
        """The entries as floats; x / den rounds exactly as float(Fraction)."""
        den = self.den
        return [[x / den for x in row] for row in self.ints]

    # ---- exact linear algebra -------------------------------------------

    def det(self) -> Fraction:
        """Exact determinant: the fraction-free determinant of the integer
        rows over den**n."""
        if not self.is_square():
            raise NotSquareError(f"{self.nrows}x{self.ncols} matrix")
        return Fraction(_bareiss_int_det(self.ints), self.den**self.nrows)

    def rank(self) -> int:
        """Rank by fraction-free forward elimination of the integer rows."""
        return _fraction_free(list(self.ints), self.ncols, False)[0]

    def solve(self, rhs: "Matrix"):
        """Solve self @ X = rhs exactly; returns None when singular.

        With A = self.ints / a and B = rhs.ints / b, fraction-free
        Gauss-Jordan elimination of the integer rows [A | B] turns A into
        p I for the last pivot p, so that X = B' / p * a / b for what B
        became.
        """
        if not self.is_square() or self.nrows != rhs.nrows:
            raise ValueError("dimension mismatch")
        n = self.nrows
        aug = [a + b for a, b in zip(self.ints, rhs.ints)]
        rank, pivot, _ = _fraction_free(aug, n, True)
        if rank < n:
            return None
        return Matrix(aug, pivot * rhs.den, rhs.ncols).scale(self.den)

    def inverse(self):
        """Exact inverse; returns None when singular."""
        return self.solve(Matrix.identity(self.nrows))

    def char_poly(self):
        """det(t*I - self) as a `Polynomial`: monic, degree n.

        Permuting rows and columns together does not change the
        characteristic polynomial, and ordering the strongly connected
        components of the nonzero pattern (entries of any sign) topologically
        makes the matrix block triangular.  So it is the product of the
        blocks' characteristic polynomials: t - a_ii for a 1x1 block, and
        Berkowitz's division-free algorithm (`_berkowitz`) on the integer
        rows N = den * block of a larger one.  The product is exact over Z;
        the coefficient of t^(n-k) is then e_k * den**(n-k) / den**n.
        """
        from .polys import Polynomial  # polys imports this module
        if not self.is_square():
            raise NotSquareError(f"{self.nrows}x{self.ncols} matrix")
        n = self.nrows
        ints = self.ints
        cols = range(n)
        coeffs = [1]
        for b in _tarjan_sccs(n, [list(compress(cols, row)) for row in ints]):
            if len(b) == 1:
                factor = [1, -ints[b[0]][b[0]]]
            else:  # one block is the whole matrix, read in place
                factor = _berkowitz(ints if len(b) == n else
                                    [[ints[i][j] for j in b] for i in b])
            coeffs = _zmul(coeffs, factor)
        den = self.den
        return Polynomial([e * den ** (n - k) for k, e in enumerate(coeffs)][::-1], den**n)

    def det_one_minus_t(self):
        """det(I - t*self) as a `Polynomial`: the reversal of char_poly."""
        return self.char_poly().reversal()


def _berkowitz(nmat) -> list[int]:
    """Descending coefficients [1, e_1, ..., e_n] of det(t*I - N) for the
    square integer rows N, by Berkowitz's division-free algorithm.

    Growing the leading principal block by row and column r multiplies the
    descending coefficients of its characteristic polynomial by the
    Toeplitz matrix of [1, -N_rr, -R C, -R A C, ..., -R A^(r-1) C], with C
    the column above the diagonal, R the row left of it and A the block so
    far.  Exact over Z with no division.
    """
    coeffs = [1]
    block = []  # nonzero (k, x) of each row of the leading r x r block
    for r in range(len(nmat)):
        left = [(k, x) for k, x in enumerate(nmat[r][:r]) if x]
        t = [1, -nmat[r][r]]
        v = [nmat[i][r] for i in range(r)]
        for _ in range(r):
            t.append(-sum(x * v[k] for k, x in left))
            v = [sum(x * v[k] for k, x in row) for row in block]
        coeffs = [sum(t[i - j] * coeffs[j] for j in range(min(i, r) + 1))
                  for i in range(r + 2)]
        for i, row in enumerate(block):
            if nmat[i][r]:
                row.append((r, nmat[i][r]))
        block.append([(k, x) for k, x in enumerate(nmat[r][:r + 1]) if x])
    return coeffs


def _tarjan_sccs(n: int, out: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of the digraph on 0..n-1 whose vertex
    v has the out-neighbours out[v], by iterative Tarjan; each component
    is sorted, and they come in reverse topological order (a component
    only reaches components listed before it)."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(out[v]):
                w = out[v][pi]
                pi += 1
                if index_of[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return sccs


def _nonzero_rows(ints, ncols: int) -> list[tuple[list[int], list[int]]]:
    """The nonzeros of each integer row as (columns, entries): the sparse
    row format of `_int_product` and `spectral.perron_radius`."""
    cols = range(ncols)
    return [(list(compress(cols, row)), [x for x in row if x]) for row in ints]


def _int_product(left, right, width: int) -> list[list[int]]:
    """Integer product of sparse rows times dense rows.

    Each row of ``left`` lists its nonzero entries as (columns, entries),
    as `_nonzero_rows` gives them; row i of the result is the sum of
    c * right[k] over them, a list of ``width`` ints (all 0 for an empty
    row).  The one product kernel: `Matrix.__mul__`, the walk recurrence
    and the Hashimoto powers run on it.
    """
    out = []
    for ks, cs in left:
        acc = None
        for k, c in zip(ks, cs):
            r = right[k]
            if acc is None:
                acc = list(r) if c == 1 else [c * b for b in r]
            elif c == 1:
                acc = [a + b for a, b in zip(acc, r)]
            else:
                acc = [a + c * b for a, b in zip(acc, r)]
        out.append([0] * width if acc is None else acc)
    return out


def _fraction_free(rows, ncols: int, full: bool):
    """Fraction-free elimination of the integer rows, in place, on their
    first ``ncols`` columns; returns (rank, last pivot, sign of the row
    swaps).  Each row is replaced, never changed, so rows may be tuples.

    Column by column, the first row at or below the current rank with a
    nonzero entry there becomes the pivot row k with pivot p_k.  Bareiss's
    step (1968) turns each other row i into
    (p_k row_i - a_ik row_k) / p_(k-1), p_(-1) = 1: below row k only
    (forward), or above it too when ``full`` (Gauss-Jordan).  Every entry
    is then a minor of the input (Sylvester's identity), so each division
    is exact, and a row with a_ik = 0 would only be scaled by
    p_k / p_(k-1).  So a step updates only the rows with a nonzero in the
    pivot column, by (p_k row_i - a_ik row_k) // p_s, p_s the pivot of the
    step that last updated row i.  Every other row stays as that step left
    it, and its true entries are those times p_(k-1) / p_s; it is brought
    up to date when it becomes the pivot row and, in a full elimination,
    at the end.  The pivot column is 0 in every updated row but row k,
    where it is p_k, and in a full elimination each earlier pivot row's
    entry there becomes p_k as well; so each step drops the column from the
    rows it updates rather than computing it.

    After a full elimination of rank ``ncols`` the rows hold only their
    later columns, over the last pivot as common denominator.  In full mode
    a column without a pivot ends the elimination: the leading block is
    singular, and the rank returned is below ``ncols``.  A forward
    elimination leaves the rows partly eliminated; for a square matrix of
    full rank its last pivot is the determinant, times the sign.
    """
    nr = len(rows)
    start = [0] * nr  # the column of each row's first stored entry
    stamp = [0] * nr  # pivots[stamp[i]] = p_s for row i
    pivots = [1]
    rank, sign = 0, 1
    for j in range(ncols):
        if rank == nr:
            break
        for piv in range(rank, nr):
            if rows[piv][j - start[piv]]:
                break
        else:
            if full:
                break
            continue
        if piv != rank:
            rows[piv], rows[rank] = rows[rank], rows[piv]
            start[piv], start[rank] = start[rank], start[piv]
            stamp[piv], stamp[rank] = stamp[rank], stamp[piv]
            sign = -sign
        step = len(pivots)
        rowk = rows[rank][j - start[rank]:]
        if stamp[rank] != step - 1:
            prev, ps = pivots[-1], pivots[stamp[rank]]
            rowk = [x * prev // ps for x in rowk]
        pk = rowk[0]
        rowk = rows[rank] = rowk[1:]
        start[rank], stamp[rank] = j + 1, step
        for i in range(0 if full else rank + 1, nr):
            if i == rank:
                continue
            rowi = rows[i]
            at = j - start[i]
            a = rowi[at]
            if a:
                ps = pivots[stamp[i]]
                rows[i] = [(pk * x - a * y) // ps for x, y in zip(rowi[at + 1:], rowk)]
                start[i], stamp[i] = j + 1, step
        pivots.append(pk)
        rank += 1
    last = pivots[-1]
    if full and rank == ncols:
        for i in range(nr):
            ps = pivots[stamp[i]]
            row = rows[i][ncols - start[i]:]
            rows[i] = row if ps == last else [x * last // ps for x in row]
    return rank, last, sign


def _bareiss_int_det(rows) -> int:
    """Fraction-free determinant of an integer matrix given as rows.

    Each row is divided by its content (the gcd of its entries) first: the
    determinant is the product of the contents times the determinant of the
    primitive rows, and a zero row makes it 0.  The primitive rows then go
    through the forward `_fraction_free` elimination, whose last pivot is
    the determinant up to the sign of its row swaps.  The rows are not
    modified.
    """
    n = len(rows)
    m = []
    contents = 1
    for row in rows:
        c = gcd(*row)
        if c == 0:
            return 0
        if c != 1:
            row = [x // c for x in row]
            contents *= c
        m.append(row)
    rank, pivot, sign = _fraction_free(m, n, False)
    return sign * contents * pivot if rank == n else 0


# sample points per `_batched_dets` call: enough that the per-step work is
# shared, few enough that the rows of one group stay small
_POINT_GROUP = 32


def _batched_dets(rows, count: int) -> list[int]:
    """Determinants of ``count`` n-by-n integer matrices of one nonzero
    pattern, in one fraction-free elimination of all of them.

    rows[i][j] is the list of entry (i, j)'s values in the matrices, or None
    where the pattern has no entry; the rows are not modified.  Each row is
    divided by its content, matrix by matrix, as `_bareiss_int_det` does.
    Then the steps of the forward `_fraction_free` run with the diagonal as
    pivots, the order an `_elimination_plan` gives: a step updates, value by
    value, only the rows with an entry in the pivot column, and the others
    stay lazy (Sylvester's identity).  A matrix whose planned pivot is 0 is
    set aside: its values become 0 and its pivots 1 from then on, and its
    determinant is `_bareiss_int_det`'s, which swaps rows.
    """
    n = len(rows)
    ones = [1] * count
    contents = ones
    work = []
    for row in rows:
        entries = [e for e in row if e is not None]
        if not entries:
            return [0] * count
        cs = [gcd(*col) for col in zip(*entries)]
        if cs.count(1) != count:
            cs = [c or 1 for c in cs]  # a zero row's pivot will be 0
            row = [e if e is None else [x // c for x, c in zip(e, cs)] for e in row]
            contents = [x * c for x, c in zip(contents, cs)]
        work.append(row)
    start = [0] * n  # the column of each row's first stored entry
    stamp = [0] * n  # pivots[stamp[i]] = p_s for row i
    pivots = [ones]
    aside = set()
    for j in range(n):
        rowk = work[j][j - start[j]:]
        if stamp[j] != j:
            prev, ps = pivots[j], pivots[stamp[j]]
            rowk = [e if e is None else [x * p // s for x, p, s in zip(e, prev, ps)]
                    for e in rowk]
        pk = rowk[0]
        rowk = rowk[1:]
        if pk is None or 0 in pk:
            new = {k for k in range(count) if pk is None or not pk[k]} - aside
            pk = ones if pk is None else [x or 1 for x in pk]
            if new:
                aside |= new
                mask = [int(k not in new) for k in range(count)]
                for i in range(j + 1, n):
                    work[i] = [e if e is None else [x * b for x, b in zip(e, mask)]
                               for e in work[i]]
                rowk = [e if e is None else [x * b for x, b in zip(e, mask)] for e in rowk]
        for i in range(j + 1, n):
            rowi = work[i]
            at = j - start[i]
            a = rowi[at]
            if a is None:
                continue
            ps = pivots[stamp[i]]
            work[i] = [
                None if x is None and y is None else
                [p * u // s for p, u, s in zip(pk, x, ps)] if y is None else
                [-b * v // s for b, v, s in zip(a, y, ps)] if x is None else
                [(p * u - b * v) // s for p, u, b, v, s in zip(pk, x, a, y, ps)]
                for x, y in zip(rowi[at + 1:], rowk)]
            start[i], stamp[i] = j + 1, j + 1
        pivots.append(pk)
    dets = [c * p for c, p in zip(contents, pivots[-1])]
    for k in sorted(aside):
        dets[k] = _bareiss_int_det([[0 if e is None else e[k] for e in row] for row in rows])
    return dets


def _elimination_plan(n: int, nonzeros) -> list[int]:
    """A fixed elimination order for the n-by-n matrices whose row i can be
    nonzero only in the columns nonzeros[i] (and on the diagonal).  Row and
    column k of the planned matrix are row and column order[k] of the
    input for the order returned: a symmetric permutation, which keeps the
    determinant.

    Greedy minimum degree (George & Liu 1981) on the symmetrized pattern,
    ties broken by index: each step eliminates a vertex of fewest
    neighbours and joins those neighbours into a clique, the fill of its
    elimination.  `_fraction_free` and `_batched_dets` update only the
    rows with an entry in the pivot column, so in this order a step's
    arithmetic is that fill.
    """
    adj = [set() for _ in range(n)]
    for i, cols in enumerate(nonzeros):
        for j in cols:
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
    left = set(range(n))
    order = []
    for _ in range(n):
        v = min(left, key=lambda u: (len(adj[u]), u))
        left.remove(v)
        nbrs = adj[v]
        for u in nbrs:
            adj[u] |= nbrs
            adj[u] -= {u, v}
        order.append(v)
    return order
