"""Minimal-support null vectors (circuits of the column matroid).

A circuit is a nonzero null vector whose support is minimal under
inclusion.  On its support the column submatrix has rank one less than
the support size, so the vector is unique up to scale and we keep the
canonical primitive integer representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from relmag.matrices import (
    IntegerMatrix,
    _bareiss_step,
    _back_substitute,
    _primitive,
    nullspace_basis,
    rank,
)

# Every matrix of at most 24 columns has fewer candidate supports than this.
CANDIDATE_LIMIT = 2 ** 24


class EnumerationTooLarge(ValueError):
    """Refused an exponential enumeration; pass allow_large to override."""


@dataclass(frozen=True)
class Circuit:
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


def is_elementary(a: IntegerMatrix, x) -> bool:
    """True iff x is a null vector of minimal support.

    Decided by the rank test: the column submatrix on supp(x) must have
    rank |supp(x)| - 1, which makes its null space the single ray through
    x restricted to its support.
    """
    x = [Fraction(v) for v in x]
    if len(x) != a.cols:
        raise ValueError("vector length mismatch")
    if all(v == 0 for v in x):
        raise ValueError("zero vector is not elementary")
    if any(v != 0 for v in a.apply(x)):
        raise ValueError("vector is not in the null space")
    sup = _support(x)
    sub = a.column_submatrix(sup)
    return rank(sub) == len(sup) - 1


def enumerate_circuits(a: IntegerMatrix, allow_large: bool = False) -> list[Circuit]:
    """All circuits of A, canonical form, sorted lexicographically by support.

    A circuit is a minimal dependent column set, and every circuit lies in
    the support of the null space.  The walk goes depth first over the
    independent sets S of those columns, each taken in increasing column
    order and carrying the Bareiss echelon rows of A pivoted on S.  A
    later column j that has no entry below the pivot rows depends on S:
    back substitution gives the unique null vector on S + {j}, and S + {j}
    is a circuit iff that vector has no zero entry, so each circuit C is
    found once, from C minus its largest column.  Any other later column
    is independent of S: one Bareiss step on it extends the rows, and
    S + {j} is walked in turn.  A dependent set is never extended.  The
    step scales lazily, so each set also carries, per row, the pivot that
    row is current at; only zero tests read the rows below the pivots.
    Raises EnumerationTooLarge when there are more than CANDIDATE_LIMIT
    candidate supports (column sets of the null-space support of at most
    rank(A) + 1 columns), unless allow_large is set.
    """
    basis = nullspace_basis(a)
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
    m = a.rows
    found: list[Circuit] = []
    # (S, echelon rows pivoted on S, the pivot each row is current at, last
    # pivot); an explicit stack, so a high rank cannot exhaust the
    # recursion limit
    stack = [((), [[row[c] for c in cols] for row in a.entries], [1] * m, 1)]
    while stack:
        sset, rows, lag, prev = stack.pop()
        r = len(sset)
        for j in range(sset[-1] + 1 if sset else 0, width):
            piv = next((i for i in range(r, m) if rows[i][j]), None)
            if piv is None:
                x = [0] * width
                x[j] = 1
                _back_substitute(rows, sset, x)
                if all(x[s] for s in sset):
                    vec = [0] * a.cols
                    for c, v in zip(cols, _primitive(x)):
                        vec[c] = v
                    support = tuple(cols[s] for s in sset) + (cols[j],)
                    found.append(Circuit(support=support, vector=tuple(vec)))
                continue
            # the pivot rows are never written again, so they are shared;
            # the rest, and their lags, are copied for S + {j}
            ext = rows[:r] + [row[:] for row in rows[r:]]
            ext_lag = lag[:]
            ext[r], ext[piv] = ext[piv], ext[r]
            ext_lag[r], ext_lag[piv] = ext_lag[piv], ext_lag[r]
            _bareiss_step(ext, ext_lag, r, j, prev)
            stack.append((sset + (j,), ext, ext_lag, ext[r][j]))
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
