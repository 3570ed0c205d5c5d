"""Minimal-support null vectors (circuits of the column matroid).

A circuit is a nonzero null vector whose support is minimal under
inclusion.  On its support the column submatrix has rank one less than
the support size, so the vector is unique up to scale and we keep the
canonical primitive integer representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from relmag.matrices import IntegerMatrix, rank, nullspace_basis

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

    Candidate supports are explored by increasing cardinality inside the
    support of the null space, up to rank(A) + 1 (no circuit is larger); a
    support I qualifies when the null space of the column submatrix A_I is
    a single ray with no zero entry.  Supersets of a found support are
    pruned (they cannot be minimal).  Raises EnumerationTooLarge when
    there are more than CANDIDATE_LIMIT candidate supports, unless
    allow_large is set.
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
    found: list[Circuit] = []
    found_masks: list[int] = []
    for size in range(1, max_size + 1):
        for idx in combinations(cols, size):
            mask = 0
            for j in idx:
                mask |= 1 << j
            if any(fm & mask == fm for fm in found_masks):
                continue
            rays = nullspace_basis(a.column_submatrix(idx))
            # a zero entry would mean the ray's support is smaller than idx
            if len(rays) != 1 or 0 in rays[0]:
                continue
            # rays[0] is primitive, so its zero-padded extension is too
            vec = [0] * a.cols
            for j, v in zip(idx, rays[0]):
                vec[j] = v
            found.append(Circuit(support=idx, vector=tuple(vec)))
            found_masks.append(mask)
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
