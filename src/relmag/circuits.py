"""Minimal-support null vectors (circuits of the column matroid).

A circuit is a nonzero null vector whose support is minimal under
inclusion.  On its support the column submatrix has rank one less than
the support size, so the vector is unique up to scale and we keep the
canonical primitive integer representative.
"""

from __future__ import annotations

from math import comb, gcd
from typing import NamedTuple

from relmag.matrices import IntegerMatrix, nullspace_basis

# Every matrix of at most 24 columns has fewer candidate supports than this.
CANDIDATE_LIMIT = 2 ** 24


class EnumerationTooLarge(ValueError):
    """Refused an exponential enumeration; pass allow_large to override."""


class Circuit(NamedTuple):
    """support: sorted 0-based column indices; vector: full-length primitive."""

    support: tuple[int, ...]
    vector: tuple[int, ...]

    def restricted(self) -> tuple[int, ...]:
        """The nonzero coordinates, in support order."""
        return tuple(self.vector[j] for j in self.support)

    def to_line(self) -> str:
        """One-line text form with 1-based indices."""
        sup = ",".join(str(j + 1) for j in self.support)
        vec = ", ".join(str(v) for v in self.vector)
        return "I = {%s}; v = (%s)" % (sup, vec)

    def to_dict(self) -> dict:
        return {
            "support": [j + 1 for j in self.support],
            "vector": list(self.vector),
        }


def _support(x) -> tuple[int, ...]:
    return tuple(j for j, v in enumerate(x) if v != 0)


def _extend(
    rows: list[list[int]], lag: list[int], r: int, piv: int, c: int, prev: int
) -> tuple[list[list[int]], list[int]]:
    """The (rows, lag) of S + {c} from those of S, by one Bareiss step.

    Copy on write: no list the parent holds is written.  rows[piv] moves
    up to row r and becomes the pivot row on column c; if it lags, it is
    brought current from column c on as a new list.  Each row below with
    an entry f in column c becomes a new list, current at the pivot p:
    columns before c are kept, column c is 0, and the columns after it
    are (e * p - f * g) / lag[i]: the lazy form of the tests' dense step
    conftest.dense_bareiss_step, exact as in matrices._sparse_echelon.
    Every other row is shared with the parent, with its lag.
    """
    rows = rows[:]
    lag = lag[:]
    rows[r], rows[piv] = rows[piv], rows[r]
    lag[r], lag[piv] = lag[piv], lag[r]
    prow = rows[r]
    behind = lag[r]
    if behind != prev:
        prow = rows[r] = prow[:c] + [g * prev // behind if g else 0 for g in prow[c:]]
    p = prow[c]
    tail = prow[c + 1 :]
    for i in range(r + 1, len(rows)):
        row = rows[i]
        f = row[c]
        if f:
            behind = lag[i]
            rows[i] = row[:c] + [0] + [
                (e * p - f * g) // behind for e, g in zip(row[c + 1 :], tail)
            ]
            lag[i] = p
    return rows, lag


def enumerate_circuits(a: IntegerMatrix, allow_large: bool = False) -> list[Circuit]:
    """All circuits of A, canonical form, sorted lexicographically by support;
    circuits_from_basis on the nullspace_basis of A."""
    return circuits_from_basis(a, nullspace_basis(a), allow_large)


def circuits_from_basis(
    a: IntegerMatrix, basis: list[tuple[int, ...]], allow_large: bool = False
) -> list[Circuit]:
    """All circuits of A, canonical form, sorted lexicographically by support,
    where basis is nullspace_basis(a), so a caller that needs the basis too
    eliminates A once.

    A circuit is a minimal dependent column set, and every circuit lies in
    the support of the null space.  The walk goes depth first over the
    independent sets S of those columns, each taken in increasing column
    order and carrying the Bareiss echelon rows of A pivoted on S; R is
    the set of rows of A that became the pivot rows.  A later column j
    that has no entry below the pivot rows depends on S, and S + {j} is a
    circuit iff the unique null vector on it has no zero entry, so each
    circuit C is found once, from C minus its largest column.  That
    vector is read off the pivot rows by Cramer's rule: with
    x_j = det A[R, S], the last pivot, each x_s is
    -det A[R, S with s replaced by j], an integer, so back substitution
    over the r pivot rows divides exactly.  Every entry of a circuit
    vector is nonzero, so its primitive form is x divided by gcd(x),
    negated when x is negative at the smallest column.  Any other later
    column is independent of S: _extend takes one Bareiss step on it, and
    S + {j} is walked in turn, unless j is the last support column, which
    leaves S + {j} no later column to test.  A dependent set is never
    extended.  The step
    scales lazily, so each set also carries, per row, the pivot that row
    is current at; only zero tests read the rows below the pivots.
    Raises EnumerationTooLarge when there are more than CANDIDATE_LIMIT
    candidate supports (column sets of the null-space support of at most
    rank(A) + 1 columns), unless allow_large is set.
    """
    d = len(basis)
    if d == 0:
        return []
    if d == 1:
        return [Circuit(support=_support(basis[0]), vector=basis[0])]

    cols = sorted(set(j for v in basis for j in _support(v)))
    max_size = min(len(cols), a.cols - d + 1)
    candidates = sum(comb(len(cols), s) for s in range(1, max_size + 1))
    if candidates > CANDIDATE_LIMIT and not allow_large:
        raise EnumerationTooLarge(
            "circuit enumeration would test %d candidate supports (limit %d)"
            % (candidates, CANDIDATE_LIMIT)
        )
    # the walk runs on A restricted to cols, in local column indices
    width = len(cols)
    m, n = a.rows, a.cols
    found: list[Circuit] = []
    # (S, the columns of A in S, echelon rows pivoted on S, the pivot each
    # row is current at, last pivot); an explicit stack, so a high rank
    # cannot exhaust the recursion limit
    stack = [((), (), [[row[c] for c in cols] for row in a.entries], [1] * m, 1)]
    while stack:
        sset, csup, rows, lag, prev = stack.pop()
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
                        raise ArithmeticError(
                            "circuit vector on columns %r is not integral"
                            % (csup + (cols[j],),)
                        )
                if all(x):
                    g = gcd(*x)
                    if x[0] < 0:
                        g = -g
                    vec = [0] * n
                    support = csup + (cols[j],)
                    for c, v in zip(support, x):
                        vec[c] = v // g
                    found.append(Circuit(support, tuple(vec)))
                continue
            if j == width - 1:
                continue
            ext, ext_lag = _extend(rows, lag, r, piv, j, prev)
            stack.append((sset + (j,), csup + (cols[j],), ext, ext_lag, ext[r][j]))
    found.sort(key=lambda c: c.support)
    return found


def elementary_basis(a: IntegerMatrix) -> list[Circuit]:
    """A basis of the null space made of circuits, from one elimination.

    Each nullspace_basis ray is 1 at one free column, 0 at the others and
    otherwise supported on the independent pivot columns, so it is that
    column's fundamental circuit with respect to the pivot basis, already
    in canonical primitive form.  There are n - rank(A) of them.
    """
    return [Circuit(support=_support(v), vector=v) for v in nullspace_basis(a)]
