"""Dense matrices over arbitrary-precision rationals.

Everything in here is exact: entries are `fractions.Fraction`, determinants
use fraction-free (Bareiss) elimination on integer-scaled rows, each divided
by its content first so that elimination runs on primitive rows, and
characteristic polynomials come from Berkowitz's division-free algorithm on
the matrix cleared to integers.
Products are cleared to integers (one common denominator for the right
factor, one per row for the left) and run sparse over the nonzeros of the
left factor, so the 0/1 edge-space matrices cost what their nonzeros cost.
That inner loop, sparse integer rows times dense integer rows, is the one
private kernel `_int_product`; the integer walk tables of `walks` call it
directly and build `Fraction`s only once, at the end.
`solve`, `inverse` and `rank` clear each row to integers on its own and run
one fraction-free elimination, `_fraction_free` (Bareiss 1968): forward for
the rank, Gauss-Jordan for a solve, whose solution is then the eliminated
right-hand side over a single integer denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NotSquareError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _clear_denominators(values):
    """Integers sharing one denominator: returns (ints, lcm) with
    values[i] == ints[i] / lcm and lcm the least common denominator."""
    lcm = 1
    for x in values:
        d = x.denominator
        if d != 1 and lcm % d:
            lcm = lcm * d // gcd(lcm, d)
    if lcm == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (lcm // x.denominator) for x in values], lcm


class Matrix:
    """Immutable rational matrix."""

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, rows):
        data = tuple(
            tuple([x if type(x) is Fraction else Fraction(x) for x in row]) for row in rows
        )
        self.data = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        if any(len(r) != self.ncols for r in data):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[_ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def diagonal(entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return Matrix(
            [[_frac(entries[i]) if i == j else _ZERO for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.data]})"

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [[a + b if b else a for a, b in zip(ra, rb)]
             for ra, rb in zip(self.data, other.data)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [[a - b if b else a for a, b in zip(ra, rb)]
             for ra, rb in zip(self.data, other.data)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a if a else a for a in row] for row in self.data])

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        if c == 1:  # immutable, so the plain (tau = 1) cases pay nothing
            return self
        return Matrix([[c * a if a else a for a in row] for row in self.data])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        width = other.ncols
        flat, right_den = _clear_denominators([x for row in other.data for x in row])
        right = [flat[k * width:(k + 1) * width] for k in range(other.nrows)]
        left, dens = [], []
        for row in self.data:
            ints, den = _clear_denominators(row)
            left.append([(k, c) for k, c in enumerate(ints) if c])
            dens.append(den * right_den)
        out = []
        for acc, den in zip(_int_product(left, right, width), dens):
            if den == 1:
                out.append([Fraction(a) for a in acc])
            else:
                out.append([Fraction(a, den) for a in acc])
        return Matrix(out)

    def __rmul__(self, c):
        return self.scale(c)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.data))) if self.data else Matrix([])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def abs_sum(self) -> Fraction:
        return sum((abs(x) for row in self.data for x in row), _ZERO)

    def to_float(self):
        return [[float(x) for x in row] for row in self.data]

    # ---- exact linear algebra -------------------------------------------

    def _integer_rows(self):
        """Rows scaled to integers; returns (int rows, product of scale factors)."""
        rows = []
        scale = _ONE
        for row in self.data:
            ints, lcm = _clear_denominators(row)
            if lcm != 1:
                scale *= lcm
            rows.append(ints)
        return rows, scale

    def det(self) -> Fraction:
        """Exact determinant via fraction-free Bareiss elimination."""
        if not self.is_square():
            raise NotSquareError(f"{self.nrows}x{self.ncols} matrix")
        n = self.nrows
        if n == 0:
            return _ONE
        rows, scale = self._integer_rows()
        d = _bareiss_int_det(rows)
        return Fraction(d) / scale

    def rank(self) -> int:
        """Rank by fraction-free forward elimination on the rows cleared to
        integers, each on its own (scaling a row changes no rank)."""
        rows = [_clear_denominators(row)[0] for row in self.data]
        return _fraction_free(rows, self.ncols, False)[0]

    def solve(self, rhs: "Matrix"):
        """Solve self @ X = rhs exactly; returns None when singular.

        Each augmented row [A | B] is cleared to integers on its own, which
        leaves X unchanged, and fraction-free Gauss-Jordan elimination turns
        A into p I for the last pivot p, so that X = B' / p for what B
        became.
        """
        if not self.is_square() or self.nrows != rhs.nrows:
            raise ValueError("dimension mismatch")
        n = self.nrows
        aug = [_clear_denominators(a + b)[0] for a, b in zip(self.data, rhs.data)]
        rank, pivot = _fraction_free(aug, n, True)
        if rank < n:
            return None
        return _int_matrix(aug, pivot)

    def inverse(self):
        """Exact inverse; returns None when singular."""
        return self.solve(Matrix.identity(self.nrows))

    def char_poly(self):
        """Coefficients of det(t*I - self), ascending, as Fractions.

        Berkowitz's division-free algorithm on N = lcm * self, the matrix
        cleared to integers: growing the leading principal block by row and
        column r multiplies the descending coefficients of its characteristic
        polynomial by the Toeplitz matrix of [1, -N_rr, -R C, -R A C, ...,
        -R A^(r-1) C], with C the column above the diagonal, R the row left
        of it and A the block so far.  Exact over Z with no division; the
        coefficient of t^(n-k) is then e_k / lcm**k.  Monic, degree n.
        """
        if not self.is_square():
            raise NotSquareError(f"{self.nrows}x{self.ncols} matrix")
        n = self.nrows
        flat, lcm = _clear_denominators([x for row in self.data for x in row])
        nmat = [flat[i * n:(i + 1) * n] for i in range(n)]
        coeffs = [1]
        block = []  # nonzero (k, x) of each row of the leading r x r block
        for r in range(n):
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
        return [Fraction(e, lcm**k) for k, e in enumerate(coeffs)][::-1]

    def det_one_minus_t(self):
        """Coefficients of det(I - t*self), ascending; reversal of char_poly."""
        return self.char_poly()[::-1]


def _int_product(left, right, width: int) -> list[list[int]]:
    """Integer product of sparse rows times dense rows.

    Each row of ``left`` lists its nonzero entries as (k, c) pairs; row i of
    the result is the sum of c * right[k] over them, a list of ``width``
    ints (all 0 for an empty row).  The one product kernel: `Matrix.__mul__`
    and the integer walk tables all run on it.
    """
    out = []
    for row in left:
        acc = None
        for k, c in row:
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
    first ``ncols`` columns; returns (rank, last pivot).

    Column by column, the first row at or below the current rank with a
    nonzero entry there becomes the pivot row k with pivot p_k, and each
    other row i becomes (p_k * row_i - a_ik * row_k) // p_(k-1), p_(-1) = 1:
    below row k only (forward Bareiss), or above it too when ``full``
    (Gauss-Jordan).  Every entry is then a minor of the input (Sylvester's
    identity), so each division is exact; a row with a_ik = 0 is still
    scaled by p_k / p_(k-1).  The pivot column is then 0 in every updated
    row but row k, where it is p_k, and in a full elimination each earlier
    pivot row's entry there becomes p_k as well; so each step drops the
    column from the rows it updates rather than computing it.  After a full
    elimination of rank ``ncols`` the rows hold only their later columns,
    over the last pivot as common denominator.  In full mode a column
    without a pivot ends the elimination: the leading block is singular,
    and the rank returned is below ``ncols``.
    """
    nr = len(rows)
    rank, prev = 0, 1
    for _ in range(ncols):
        if rank == nr:
            break
        for piv in range(rank, nr):
            if rows[piv][0]:
                break
        else:
            if full:
                break
            rows[rank:] = [row[1:] for row in rows[rank:]]
            continue
        rowk = rows[piv]
        rows[piv] = rows[rank]
        pk = rowk[0]
        rowk = rows[rank] = rowk[1:]
        for i in range(0 if full else rank + 1, nr):
            if i == rank:
                continue
            rowi = rows[i]
            a = rowi[0]
            if a:
                rows[i] = [(pk * x - a * y) // prev for x, y in zip(rowi[1:], rowk)]
            elif pk != prev:
                rows[i] = [pk * x // prev for x in rowi[1:]]
            else:
                rows[i] = rowi[1:]
        prev = pk
        rank += 1
    return rank, prev


class _Fractions(dict):
    """Fraction(x, den) by integer numerator x, each built once."""

    __slots__ = ("den",)

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, x):
        f = self[x] = Fraction(x, self.den)
        return f


def _int_matrix(rows, den: int = 1) -> Matrix:
    """The matrix of Fraction(x, den) over integer rows; equal entries share
    one immutable Fraction, so a table of small counts builds few of them."""
    fractions = _Fractions(den)
    return Matrix([[fractions[x] for x in row] for row in rows])


def _bareiss_int_det(rows) -> int:
    """Fraction-free determinant of an integer matrix given as rows.

    Each row is divided by its content (the gcd of its entries) first: the
    determinant is the product of the contents times the determinant of the
    primitive rows, and a zero row makes it 0.  The rows are not modified.
    """
    n = len(rows)
    if n == 0:
        return 1
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
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            rik = m[i][k]
            rowi = m[i]
            rowk = m[k]
            if rik:
                m[i] = [(pk * a - rik * b) // prev for a, b in zip(rowi, rowk)]
            elif prev != 1 or pk != 1:
                m[i] = [(pk * a) // prev for a in rowi]
        prev = pk
    return sign * contents * m[n - 1][n - 1]
