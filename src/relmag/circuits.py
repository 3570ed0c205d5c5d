"""Minimal-support null vectors (circuits of the column matroid).

A circuit is a nonzero null vector whose support is minimal under
inclusion.  On its support the column submatrix has rank one less than
the support size, so the vector is unique up to scale and we keep the
canonical primitive integer representative.  enumerate_circuits finds
them from the smaller side: by a walk over A's columns, or, when the
nullity is at most rank + 1, as the cocircuits of the null-space basis.
"""

from itertools import compress
from math import comb, gcd
from operator import mul
from typing import NamedTuple

from relmag.matrices import IntegerMatrix, _primitive, nullspace_basis

# The most candidate supports the chosen route may test; every matrix of at
# most 24 columns has fewer on either route.
CANDIDATE_LIMIT = 2 ** 24


class EnumerationTooLarge(ValueError):
    """Refused an exponential enumeration; pass allow_large to override."""


class Circuit(NamedTuple):
    """support: sorted 0-based column indices; vector: full-length primitive."""

    support: tuple[int, ...]
    vector: tuple[int, ...]

    def to_line(self) -> str:
        """One-line text form with 1-based indices."""
        vec = ", ".join(str(v) for v in self.vector)
        return "I = %s; v = (%s)" % (_columns(self.support), vec)

    def to_dict(self) -> dict:
        return {
            "support": list(map((1).__add__, self.support)),
            "vector": list(self.vector),
        }


def _support(x) -> tuple[int, ...]:
    return tuple(j for j, v in enumerate(x) if v != 0)


def _columns(support: tuple[int, ...]) -> str:
    """The 0-based columns of support as the 1-based set {i,j,...}."""
    return "{%s}" % ",".join(str(j + 1) for j in support)


def _checked(a: IntegerMatrix, support: tuple[int, ...], vec: tuple[int, ...]) -> Circuit:
    """The circuit (support, vec), once one integer dot product per row of
    A shows A.z = 0; a nonzero product, which only a wrong elimination or
    back substitution can leave, raises ArithmeticError."""
    for row in a.entries:
        if sum(map(mul, row, vec)):
            raise ArithmeticError(
                "circuit vector on columns %s is not a null vector" % _columns(support))
    return Circuit(support, vec)


def _extend(rows: list[list[int]], r: int, piv: int, c: int, prev: int) -> list[list[int]]:
    """The echelon rows of S + {c} from those of S, by one Bareiss step.

    Copy on write: no list the parent holds is written.  rows[piv] moves
    up to row r and becomes the pivot row on column c, with pivot p.  Each
    row below becomes a new list: one with an entry f in column c gets 0
    there and (e * p - f * g) / prev after it, one with a zero there is
    rescaled by p / prev after it, and both keep the columns before c.
    This is the tests' dense step conftest.dense_bareiss_step, so every
    division is exact: each entry it writes is a minor of A.  The rows
    above r are shared with the parent.
    """
    rows = rows[:]
    rows[r], rows[piv] = rows[piv], rows[r]
    prow = rows[r]
    p = prow[c]
    tail = prow[c + 1 :]
    for i in range(r + 1, len(rows)):
        row = rows[i]
        f = row[c]
        if f:
            rows[i] = row[:c] + [0] + [
                (e * p - f * g) // prev for e, g in zip(row[c + 1 :], tail)
            ]
        elif p != prev:
            rows[i] = row[: c + 1] + [e * p // prev for e in row[c + 1 :]]
    return rows


def _extend_whole(rows: list[list[int]], r: int, piv: int, c: int, prev: int) -> list[list[int]]:
    """_extend on whole rows: the entries of each row below the pivot are
    updated at every column, also at the columns before c.

    The dual route reads its circuit vectors off the full width of the
    rows it leaves, where _extend would leave the columns before c stale
    at every column the walk skipped.  Each entry (e * p - f * g) / prev is still a minor,
    whatever its column, so every division is exact.  Copy on write as in
    _extend: a row with a zero in column c is rescaled by p / prev into a
    new list, or shared with the parent when p == prev.
    """
    rows = rows[:]
    rows[r], rows[piv] = rows[piv], rows[r]
    prow = rows[r]
    p = prow[c]
    for i in range(r + 1, len(rows)):
        row = rows[i]
        f = row[c]
        if f:
            rows[i] = [(e * p - f * g) // prev for e, g in zip(row, prow)]
        elif p != prev:
            rows[i] = [e * p // prev for e in row]
    return rows


def _walk(a: IntegerMatrix, cols: list[int]) -> list[Circuit]:
    """The circuits of A, sorted, by a walk over A's own columns in cols.

    The walk goes depth first over the independent sets S of the columns
    cols, each taken in increasing column order and carrying the Bareiss
    echelon rows of A pivoted on S; R is the set of rows of A that became
    the pivot rows.  A later column j that has no entry below the pivot
    rows depends on S, and S + {j} is a circuit iff the unique null vector
    on it has no zero entry, so each circuit C is found once, from C minus
    its largest column.  That vector is read off the pivot rows by
    Cramer's rule: with x_j = det A[R, S], the last pivot, each x_s is
    -det A[R, S with s replaced by j], an integer, so back substitution
    over the r pivot rows divides exactly.  Every entry of a circuit
    vector is nonzero, so its primitive form is x divided by gcd(x),
    negated when x is negative at the smallest column.  A remainder, which
    only a wrong pivot row or pivot can leave, raises ArithmeticError, and
    every circuit passes _checked.  Any other later column is independent
    of S: _extend takes one Bareiss step on it, and S + {j} is walked in
    turn, unless j is the last column of cols, which leaves S + {j} no
    later column to test.  A dependent set is never extended.
    """
    # the walk runs on A restricted to cols, in local column indices
    width = len(cols)
    m, n = a.rows, a.cols
    found: list[Circuit] = []
    # (S, the columns of A in S, echelon rows pivoted on S, last pivot); an
    # explicit stack, so a high rank cannot exhaust the recursion limit
    stack = [((), (), [[row[c] for c in cols] for row in a.entries], 1)]
    while stack:
        sset, csup, rows, prev = stack.pop()
        r = len(sset)
        for j in range(sset[-1] + 1 if sset else 0, width):
            for piv in range(r, m):
                if rows[piv][j]:
                    break
            else:
                # x on S + {j}, in support order, with x_j = prev; a
                # remainder would mean a wrong pivot row or pivot
                x = [0] * r + [prev]
                for q in range(r - 1, -1, -1):
                    row = rows[q]
                    s = row[j] * prev
                    for t in range(q + 1, r):
                        s += row[sset[t]] * x[t]
                    x[q], rest = divmod(-s, row[sset[q]])
                    if rest:
                        raise ArithmeticError("circuit vector on columns %s is not integral"
                                              % _columns(csup + (cols[j],)))
                if all(x):
                    g = gcd(*x)
                    if x[0] < 0:
                        g = -g
                    vec = [0] * n
                    support = csup + (cols[j],)
                    for c, v in zip(support, x):
                        vec[c] = v // g
                    found.append(_checked(a, support, tuple(vec)))
                continue
            if j == width - 1:
                continue
            ext = _extend(rows, r, piv, j, prev)
            stack.append((sset + (j,), csup + (cols[j],), ext, ext[r][j]))
    # supports are distinct, so circuits sort by support
    found.sort()
    return found


def _dual(a: IntegerMatrix, basis: list[tuple[int, ...]]) -> list[Circuit]:
    """The circuits of A, sorted, as the cocircuits of its null-space basis.

    The d rows of N = basis span N(A), so the circuits of A are the
    vectors y.N of minimal nonzero support, and the zero set of each one
    is a hyperplane of N's columns, spanned by d - 1 independent columns
    (Oxley, Matroid Theory, ch. 2).  The walk goes depth first over the
    increasing independent sequences T of at most d - 2 of N's columns
    that can still grow to d - 1 columns, carrying the Bareiss echelon
    rows of N pivoted on T, one _extend_whole step per added column; a
    zero column of N never takes a pivot.  At |T| = d - 2 two rows u, v
    are left below the pivots, and each column j > max T with u_j or v_j
    nonzero closes the hyperplane basis T + {j}: the step on j would
    leave the one row z = (u_j v - v_j u) / prev, up to sign, which is
    the vector of the d x d minors det N[:, T + {j, k}] over k: 0 exactly
    on the hyperplane that T + {j} spans, so a circuit vector.  Each
    basis of a hyperplane gives a multiple of the same vector, so z is
    kept once per support, in primitive form, and passes _checked.  A z
    that is nonzero at a column of T, which only a wrong step can leave,
    raises ArithmeticError.  With d = 1 the one basis vector is the one
    circuit.
    """
    d, n = len(basis), a.cols
    if d == 1:
        return [_checked(a, _support(basis[0]), basis[0])]
    columns = range(n)
    # T + {j} can still grow to d - 1 columns iff j < stop + |T|
    stop = n + 2 - d
    kept: dict[tuple[int, ...], list[int]] = {}
    stack = [((), [list(v) for v in basis], 1)]
    while stack:
        tset, rows, prev = stack.pop()
        r = len(tset)
        start = tset[-1] + 1 if tset else 0
        if r < d - 2:
            for j in range(start, stop + r):
                for piv in range(r, d):
                    if rows[piv][j]:
                        break
                else:
                    continue
                ext = _extend_whole(rows, r, piv, j, prev)
                stack.append((tset + (j,), ext, ext[r][j]))
            continue
        # |T| = d - 2: the last step, on the two rows left, without a copy
        u, v = rows[r], rows[r + 1]
        for j in range(start, n):
            p, q = u[j], v[j]
            if p or q:
                z = [(p * y - q * x) // prev for x, y in zip(u, v)]
                for t in tset:
                    if z[t]:
                        raise ArithmeticError(
                            "circuit vector on columns %s is not 0 on its pivot columns %s"
                            % (_columns(_support(z)), _columns(tset + (j,))))
                kept.setdefault(tuple(compress(columns, z)), z)
    found = [_checked(a, support, _primitive(z)) for support, z in kept.items()]
    found.sort()
    return found


def enumerate_circuits(a: IntegerMatrix, allow_large: bool = False) -> list[Circuit]:
    """All circuits of A, canonical form, sorted lexicographically by support.

    A circuit is a minimal dependent column set, and every circuit lies in
    the w columns of the support of the null space, read off
    nullspace_basis(a), of dimension d.  Two routes find them: _walk over
    the independent sets of A's columns, which tests sum C(w, s) candidate
    supports over s = 1..min(w, rank(A) + 1), and _dual over the
    independent sets of the basis's columns, which tests the same sum over
    s = 1..d - 1.  The route that tests fewer runs, the walk on a tie; as
    both sums run over one row of Pascal's triangle, that is the dual
    route exactly when d <= rank(A) + 1.  Both return the same sorted list
    of circuits, each of which has passed _checked: one dot product per
    row of A shows that A.z = 0.
    Raises EnumerationTooLarge when the chosen route has more than
    CANDIDATE_LIMIT candidate supports, unless allow_large is set.  The
    enumeration runs once per matrix: a completed one keeps the list and
    its candidate count in a._memo, and each call returns a fresh list.
    The guard runs on every call, on the count kept there once an
    enumeration has completed; a refused call or an enumeration that
    raises keeps no circuit list.
    """
    memo = a._memo.get("circuits")
    if memo is None:
        basis = nullspace_basis(a)
        d = len(basis)
        if d == 0:
            return []
        cols = sorted(set(j for v in basis for j in _support(v)))
        top = min(len(cols), a.cols - d + 1)
        dual = d - 1 < top
        if dual:
            top = d - 1
        candidates = sum(comb(len(cols), s) for s in range(1, top + 1))
    else:
        kept, candidates = memo
    if candidates > CANDIDATE_LIMIT and not allow_large:
        raise EnumerationTooLarge(
            "circuit enumeration would test %d candidate supports (limit %d)"
            % (candidates, CANDIDATE_LIMIT)
        )
    if memo is not None:
        return list(kept)
    found = _dual(a, basis) if dual else _walk(a, cols)
    a._memo["circuits"] = (tuple(found), candidates)
    return found


def elementary_basis(a: IntegerMatrix) -> list[Circuit]:
    """A basis of the null space made of circuits, from one elimination.

    Each nullspace_basis ray is 1 at one free column, 0 at the others and
    otherwise supported on the independent pivot columns, so it is that
    column's fundamental circuit with respect to the pivot basis, already
    in canonical primitive form.  There are n - rank(A) of them, each
    checked to be a null vector of A.
    """
    return [_checked(a, _support(v), v) for v in nullspace_basis(a)]
