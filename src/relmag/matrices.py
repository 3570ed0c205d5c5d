"""Exact integer and rational matrix arithmetic.

Everything here operates on arbitrary-precision Python ints, so results
are always exact; a rational output is an integer pair y / t, written in
lowest terms by ``format_ratio``.  There is one fraction-free (Bareiss)
elimination, ``_sparse_echelon``, on {column: value} rows that hold only
the nonzeros, and one integer back substitution, ``_ray``, which takes
every null vector: one per free column in ``nullspace_basis``, the one
at the right-hand side in ``_solve_augmented`` and the one at the column
without a pivot in ``_signed_maximal_minors``.  Its free column holds the
last pivot, so by Cramer's rule each of its divisions is exact.
``rank``, ``determinant`` and ``nullspace_basis`` run them on the rows of
an IntegerMatrix; ``_solve_augmented`` solves A.x = b for the reduction,
and returns the solution as integers y over one common denominator t,
x = y / t, the form of Cramer's rule, so its callers never build a
Fraction per coordinate; ``_signed_maximal_minors`` takes every Cramer
numerator of a square system whose first row is a unit row from one
elimination, the route by which an assembled system gets det A and the
numerators that check its solution.  The elimination scales rows lazily
and leaves a row with a zero in the pivot column untouched, yet the
pivot rows, the rank, the sign and so every result equal dense Bareiss
elimination's; a chain system, nearly all zeros, is solved with O(n)
row writes instead of O(n^2).  The circuit walk (relmag.circuits)
starts from ``nullspace_basis``, then takes the plain Bareiss step on
copies of dense rows per column it adds to an independent set and reads
each circuit vector by its own dense back substitution.  An
IntegerMatrix is immutable, so it keeps its null-space basis and its
circuits in a private memo: a matrix asked for both its omega and its
circuits eliminates and walks once.
"""

from __future__ import annotations

import re
import sys
from math import gcd


class MatrixError(ValueError):
    """Invalid matrix input."""


class NonSquareError(MatrixError):
    """Operation requires a square matrix."""


class _Frozen:
    """Base of the two records whose construction validates its input.

    A subclass names its fields in _fields and sets them in __init__ with
    object.__setattr__.  ==, hash and repr go by those fields; assigning or
    deleting any attribute raises.  The instance keeps its __dict__, so
    copy and pickle take it as it is.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % field for field in zip(self._fields, self._values())))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class IntegerMatrix(_Frozen):
    """Immutable m x n matrix with integer entries, row-major.

    _memo keeps what depends only on the entries, computed once per
    object: nullspace_basis stores the basis and
    circuits.enumerate_circuits the circuit list, each as a tuple.  It
    takes no part in ==, hash or repr, so an equal matrix parsed afresh
    computes its own.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_memo", {})
        # looked up on the instance, so that a tracer can wrap the checks
        self.__post_init__()

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise MatrixError("matrix must have at least one row and one column")
        n = len(self.entries[0])
        for row in self.entries:
            if len(row) != n:
                raise MatrixError("ragged rows")
            for e in row:
                if not isinstance(e, int):
                    raise MatrixError("entries must be integers, got %r" % (e,))

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        return cls(tuple(tuple(_to_int(e) for e in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def gram(self) -> "IntegerMatrix":
        """Return A.A^T (symmetric positive semidefinite)."""
        return IntegerMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in self.entries)
                for r1 in self.entries
            )
        )


def _to_int(e) -> int:
    """e as an int; an entry of another value, such as 1/2 or 2.7, raises."""
    i = int(e)
    if i != e:
        raise MatrixError("entries must be integers, got %r" % (e,))
    return i


def infinity_norm(a: IntegerMatrix) -> int:
    """Maximum over rows of the sum of absolute entry values."""
    return max(sum(abs(e) for e in row) for row in a.entries)


def _dict_rows(a: IntegerMatrix) -> list[dict[int, int]]:
    """The rows of a as the {column: value} rows of their nonzeros."""
    return [{j: e for j, e in enumerate(row) if e} for row in a.entries]


def _sparse_echelon(rows: list[dict[int, int]], n: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of {column: value} rows over
    the columns 0..n-1, in place.

    Columns are taken in ascending order; columns without a pivot are
    skipped, and the pivot of column c is the first row at or below r with
    an entry in c.  Rows are scaled lazily: row i carries lag[i], the pivot
    at which it was last updated, and the dense Bareiss row is
    rows[i] * prev / lag[i], a minor of the input, so every division is
    exact.  A row without an entry in c would only be scaled by p / prev,
    so it is not touched; a pivot row is brought current when it becomes
    one.  So the pivots, the sign and every pivot row (as its nonzeros)
    equal dense Bareiss elimination's, and every pivot row entry is a minor
    of the input.  A row with an entry in c is updated over the union of
    its own nonzeros and the pivot row's, an entry that cancels is deleted,
    so `c in row` finds exactly the rows to update, and the rows below the
    rank end empty.  Each column still tests every row below the pivot,
    but only nonzeros are written: a chain, two nonzeros per row, is
    eliminated with O(n) dict writes.  Returns the pivot columns and the
    sign of the row permutation.
    """
    m = len(rows)
    lag = [1] * m
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        for piv in range(r, m):
            if c in rows[piv]:
                break
        else:
            continue
        prow = rows[piv]
        if piv != r:
            rows[r], rows[piv] = prow, rows[r]
            lag[r], lag[piv] = lag[piv], lag[r]
            sign = -sign
        # every entry of the pivot row is at c or after it
        behind = lag[r]
        if behind != prev:
            for j in prow:
                prow[j] = prow[j] * prev // behind
        p = prow[c]
        # rows r + 1 .. piv - 1 have no entry in c, nor has row piv, now
        # the old row r
        for i in range(piv + 1, m):
            row = rows[i]
            if c in row:
                f = row.pop(c)
                behind = lag[i]
                if p != behind:
                    for j in row:
                        if j not in prow:
                            row[j] = row[j] * p // behind
                for j, e in prow.items():
                    if j == c:
                        continue
                    if j in row:
                        v = (row[j] * p - f * e) // behind
                        if v:
                            row[j] = v
                        else:
                            del row[j]
                    else:
                        row[j] = -f * e // behind
                lag[i] = p
        pivots.append(c)
        prev = p
        r += 1
    return pivots, sign


def _ray(rows: list[dict[int, int]], pivots: list[int], n: int, f: int) -> list[int]:
    """The null vector x of the pivot rows over columns 0..n-1 that is the
    last pivot, the determinant of the pivot block (1 with no pivot), at
    the non-pivot column f and 0 at the other non-pivot columns.

    By Cramer's rule each value filled in at a pivot column is an integer,
    a minor of the input, so every division is exact; a remainder, which
    only a wrong pivot row can leave, raises ArithmeticError.  Its message
    names the 0-based kernel column, which is a variable, a matrix column
    or the right-hand side depending on the caller.
    """
    x = [0] * n
    x[f] = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = rows[r]
        s = 0
        for j, v in row.items():
            s += v * x[j]
        x[c], rest = divmod(-s, row[c])
        if rest:
            raise ArithmeticError("the Cramer quotient at column %d is not integral" % c)
    return x


def _solve_augmented(rows: list[dict[int, int]], n: int):
    """Solve A.x = b from the augmented {column: value} rows [A | b], in place.

    A has columns 0..n-1 and b is column n.  One fraction-free elimination
    (_sparse_echelon).  Returns None when the right-hand side column has a
    pivot (b is not in the column space of A).  Otherwise returns (pivots,
    y, t): the pivot columns of A and the solution with every free
    variable zero as integers y over one common denominator t, x = y / t,
    in canonical form (t > 0 and gcd(t, y_1, ..., y_n) = 1, so equal
    solutions give equal (y, t)), read off the _ray at column n.
    """
    pivots, _ = _sparse_echelon(rows, n + 1)
    if pivots and pivots[-1] == n:
        return None
    # [A | b] . (y, -t) = 0 gives A . (y / t) = b
    y = _ray(rows, pivots, n + 1, n)
    g = gcd(*y)
    if y[n] > 0:
        g = -g
    t = -y.pop() // g
    return pivots, [v // g for v in y], t


def _signed_maximal_minors(rows: list[dict[int, int]], n: int) -> list[int]:
    """All d_i = (-1)^i det B_-i of the (n-1) x n {column: value} rows B, in place.

    B_-i is B without column i (0-based).  If A is a square matrix whose
    first row is a unit row and whose other rows are B, A_i (column i
    replaced by e_1) has one nonzero in column i, the 1 in its first row,
    so the Cramer numerator det A_i is d_i; with the unit row e_u, det A
    is d_u, so one call gives det A and every numerator of Cramer's rule
    (systems.solve_assembled takes them so).  d is a null vector of B, so one
    elimination gives all n: when B has rank n-1 it leaves one free column
    f, and Bareiss makes the last pivot, times the sign of the row
    permutation, det B_-f.  So the _ray at f times that sign is (-1)^f d.
    d is zero when B is rank-deficient.
    """
    pivots, sign = _sparse_echelon(rows, n)
    if len(pivots) < n - 1:
        return [0] * n
    f = n * (n - 1) // 2 - sum(pivots)  # the one column without a pivot
    z = _ray(rows, pivots, n, f)
    return z if sign == (-1) ** f else [-v for v in z]


def rank(a: IntegerMatrix) -> int:
    """Exact rank: the number of pivots of the fraction-free echelon form."""
    return len(_sparse_echelon(_dict_rows(a), a.cols)[0])


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise NonSquareError("determinant requires a square matrix")
    rows = _dict_rows(m)
    pivots, sign = _sparse_echelon(rows, m.cols)
    return sign * rows[-1][m.cols - 1] if len(pivots) == m.rows else 0


def _primitive(ints) -> tuple[int, ...]:
    """Canonical primitive form of a nonzero integer vector: divide by the
    gcd, signed so that the first nonzero entry is positive.  Parallel
    vectors map to the same result."""
    g = gcd(*ints)
    if g == 0:
        raise RuntimeError("zero vector has no primitive form")
    for v in ints:
        if v:
            if v < 0:
                g = -g
            break
    return tuple([v // g for v in ints])


def nullspace_basis(a: IntegerMatrix) -> list[tuple[int, ...]]:
    """Basis of N(A), each vector in canonical primitive integer form.

    Empty list iff rank(A) = n.  There is one basis vector per free
    (non-pivot) column f, in increasing order: the null vector that is
    nonzero at f and 0 at the other free columns, the _ray at f in
    primitive form.  A matrix eliminates once: later calls copy the basis
    kept in a._memo.
    """
    if "basis" in a._memo:
        return list(a._memo["basis"])
    n = a.cols
    rows = _dict_rows(a)
    pivots, _ = _sparse_echelon(rows, n)
    pivot_set = set(pivots)
    basis = [_primitive(_ray(rows, pivots, n, f)) for f in range(n) if f not in pivot_set]
    a._memo["basis"] = tuple(basis)
    return basis


def format_ratio(y: int, t: int) -> str:
    """Render the rational y / t (t > 0) as "p/q" with q > 0 and
    gcd(p, q) = 1, or "p" when t divides y."""
    if t == 1:
        return "%d" % y
    g = gcd(y, t)
    if g == t:
        return "%d" % (y // t)
    return "%d/%d" % (y // g, t // g)


def _decimal(n: int) -> str:
    """n in decimal, or a lower bound where n has more digits than
    int-to-str conversion allows (sys.get_int_max_str_digits()): error
    messages write their integers with it, so that a message about a huge
    value does not itself raise."""
    try:
        return "%d" % n
    except ValueError:
        return "10^%d or more" % sys.get_int_max_str_digits()


def _position(line_no: int, line: str, index: int) -> str:
    """"line L, col C" of the index-th entry of line, or of its end."""
    starts = [m.start() for m in re.finditer(r"\S+", line)] + [len(line.rstrip())]
    return "line %d, col %d" % (line_no, starts[index])


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and 0-based column of position pos of text, where
    lines break as str.splitlines() breaks them ('\\r\\n' is one break)."""
    lines = (text[:pos] + ".").splitlines()  # "." keeps a line after a final break
    return len(lines), len(lines[-1]) - 1


def parse_matrix(text: str) -> IntegerMatrix:
    """Parse the text format: first line "m n", then m rows of n integers.

    `#` starts a comment that runs to the end of its line.  An error is
    reported at its line, counting comment and blank lines, and 0-based
    column: a bad header at the header, a row with the wrong number of
    entries, a non-integer entry or an integer entry of more digits than
    int() converts (sys.get_int_max_str_digits()) where it is found, and a
    wrong number of rows at the first extra row or the end of the input.
    """
    # tolerate unicode minus in hand-written files
    lines = [
        (line_no, ln.split("#", 1)[0])
        for line_no, ln in enumerate(text.replace("−", "-").splitlines(), start=1)
    ]
    lines = [(line_no, ln) for line_no, ln in lines if ln.strip()]
    if not lines:
        raise MatrixError("empty matrix input")
    line_no, header = lines[0]
    try:
        m, n = map(int, header.split())
    except ValueError as exc:
        raise MatrixError("%s: first line must be 'm n'" % _position(line_no, header, 0)) from exc
    if m < 1 or n < 1:
        raise MatrixError("%s: matrix dimensions must be positive" % _position(line_no, header, 0))
    if len(lines) != m + 1:
        where = (_position(*lines[m + 1], 0) if len(lines) > m + 1
                 else "line %d, col %d" % _line_col(text, len(text)))
        raise MatrixError("%s: expected %d data rows, got %d" % (where, m, len(lines) - 1))
    rows = []
    for line_no, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise MatrixError(
                "%s: expected %d entries per row, got %d"
                % (_position(line_no, ln, min(n, len(parts))), n, len(parts))
            )
        row = []
        for index, p in enumerate(parts):
            try:
                row.append(int(p))
            except ValueError as exc:
                raise MatrixError(_entry_error(_position(line_no, ln, index), p)) from exc
        rows.append(tuple(row))
    return IntegerMatrix(tuple(rows))


def _entry_error(where: str, p: str) -> str:
    """The message for the entry p at where that int() rejects: not an
    integer, or more digits than int() converts."""
    if re.fullmatch(r"[+-]?\d+(?:_\d+)*", p):
        return "%s: entry of %d digits is too long, limit is %d" % (
            where, len(p.lstrip("+-").replace("_", "")), sys.get_int_max_str_digits())
    return "%s: non-integer entry %r" % (where, p)


def format_matrix(a: IntegerMatrix) -> str:
    lines = ["%d %d" % (a.rows, a.cols)]
    for row in a.entries:
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"
